//! Trace post-processing — the paper's Section 3.5 step (b).
//!
//! Works purely from the captured packets, never from simulator ground
//! truth: connection-failure cause is inferred from which packet kinds
//! appear, and the packet-loss proxy from duplicate sequence numbers.

use crate::packet::{Direction, PacketKind, Trace};
use model::TcpFailureKind;

/// What a trace says about its connection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceVerdict {
    /// Handshake never completed (no SYN-ACK, or RST answered the SYN).
    NoConnection,
    /// Handshake completed; zero response bytes arrived.
    NoResponse,
    /// Some response data arrived but the transfer did not complete.
    PartialResponse,
    /// The full response arrived (orderly FIN observed).
    Complete,
}

impl TraceVerdict {
    /// Map to the failure taxonomy (None for a completed transfer).
    pub fn failure_kind(self) -> Option<TcpFailureKind> {
        match self {
            TraceVerdict::NoConnection => Some(TcpFailureKind::NoConnection),
            TraceVerdict::NoResponse => Some(TcpFailureKind::NoResponse),
            TraceVerdict::PartialResponse => Some(TcpFailureKind::PartialResponse),
            TraceVerdict::Complete => None,
        }
    }
}

/// Classify a connection from its packet trace.
pub fn classify_trace(trace: &Trace) -> TraceVerdict {
    let mut saw_syn_ack = false;
    let mut saw_data = false;
    let mut saw_fin = false;
    for p in trace {
        match (p.direction, p.kind) {
            (Direction::ServerToClient, PacketKind::SynAck) => saw_syn_ack = true,
            (Direction::ServerToClient, PacketKind::Data { .. }) => saw_data = true,
            (Direction::ServerToClient, PacketKind::Fin) => saw_fin = true,
            _ => {}
        }
    }
    if !saw_syn_ack {
        return TraceVerdict::NoConnection;
    }
    if !saw_data {
        return TraceVerdict::NoResponse;
    }
    if !saw_fin {
        return TraceVerdict::PartialResponse;
    }
    TraceVerdict::Complete
}

/// Count retransmissions visible in the trace: `(syn_retx, data_retx)`.
///
/// SYN retransmissions are repeats of the client's SYN; data retransmissions
/// are duplicate `(direction, seq)` pairs among request/data segments. As in
/// a real client-side capture this *under-counts* sender retransmissions
/// whose earlier copies never reached the capture point.
///
/// The pairs are packed into `keys`, a caller-owned buffer that is cleared
/// and refilled, and sorted: every copy past the first of a pair is one
/// duplicate, and in sorted order each such copy equals the key before it.
/// A hot loop reuses one buffer across connections, as it does the capture
/// buffer.
pub fn count_retransmissions(trace: &Trace, keys: &mut Vec<u64>) -> (u32, u32) {
    let mut syns: u32 = 0;
    keys.clear();
    for p in trace {
        match (p.direction, p.kind) {
            (Direction::ClientToServer, PacketKind::Syn) => syns += 1,
            (Direction::ClientToServer, PacketKind::Request { seq }) => keys.push(u64::from(seq)),
            (Direction::ServerToClient, PacketKind::Data { seq }) => {
                keys.push(1 << 32 | u64::from(seq));
            }
            _ => {}
        }
    }
    keys.sort_unstable();
    let dupes = keys.windows(2).filter(|w| w[0] == w[1]).count();
    (syns.saturating_sub(1), dupes as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection::{simulate_connection_into, PathQuality, ServerBehavior};
    use crate::packet::TracePacket;
    use model::{SimDuration, SimTime};
    use netsim::SimRng;

    /// The count by its definition, as a map from each `(direction, seq)`
    /// pair to its copies: the reference the sorted-key count must equal.
    fn reference_count(trace: &Trace) -> (u32, u32) {
        use std::collections::HashMap;
        let mut syns: u32 = 0;
        let mut seen: HashMap<(bool, u32), u32> = HashMap::new();
        for p in trace {
            match (p.direction, p.kind) {
                (Direction::ClientToServer, PacketKind::Syn) => syns += 1,
                (Direction::ClientToServer, PacketKind::Request { seq }) => {
                    *seen.entry((false, seq)).or_insert(0) += 1;
                }
                (Direction::ServerToClient, PacketKind::Data { seq }) => {
                    *seen.entry((true, seq)).or_insert(0) += 1;
                }
                _ => {}
            }
        }
        let dupes: u32 = seen.values().map(|c| c.saturating_sub(1)).sum();
        (syns.saturating_sub(1), dupes)
    }

    fn pkt(direction: Direction, kind: PacketKind) -> TracePacket {
        TracePacket {
            time: SimTime::ZERO,
            direction,
            kind,
        }
    }

    #[test]
    fn classify_hand_built_traces() {
        // Only SYNs: no connection.
        let t = vec![pkt(Direction::ClientToServer, PacketKind::Syn)];
        assert_eq!(classify_trace(&t), TraceVerdict::NoConnection);

        // RST answer: still no connection (no SYN-ACK).
        let t = vec![
            pkt(Direction::ClientToServer, PacketKind::Syn),
            pkt(Direction::ServerToClient, PacketKind::Rst),
        ];
        assert_eq!(classify_trace(&t), TraceVerdict::NoConnection);

        // Handshake but no data.
        let t = vec![
            pkt(Direction::ClientToServer, PacketKind::Syn),
            pkt(Direction::ServerToClient, PacketKind::SynAck),
            pkt(Direction::ClientToServer, PacketKind::Ack),
            pkt(Direction::ClientToServer, PacketKind::Request { seq: 0 }),
        ];
        assert_eq!(classify_trace(&t), TraceVerdict::NoResponse);

        // Data but no FIN.
        let mut t2 = t.clone();
        t2.push(pkt(Direction::ServerToClient, PacketKind::Data { seq: 0 }));
        assert_eq!(classify_trace(&t2), TraceVerdict::PartialResponse);

        // Complete.
        t2.push(pkt(Direction::ServerToClient, PacketKind::Fin));
        assert_eq!(classify_trace(&t2), TraceVerdict::Complete);
    }

    #[test]
    fn empty_trace_is_no_connection() {
        assert_eq!(classify_trace(&Vec::new()), TraceVerdict::NoConnection);
    }

    #[test]
    fn retransmission_counting() {
        let t = vec![
            pkt(Direction::ClientToServer, PacketKind::Syn),
            pkt(Direction::ClientToServer, PacketKind::Syn),
            pkt(Direction::ClientToServer, PacketKind::Syn),
            pkt(Direction::ServerToClient, PacketKind::SynAck),
            pkt(Direction::ClientToServer, PacketKind::Request { seq: 0 }),
            pkt(Direction::ClientToServer, PacketKind::Request { seq: 0 }),
            pkt(Direction::ServerToClient, PacketKind::Data { seq: 0 }),
            pkt(Direction::ServerToClient, PacketKind::Data { seq: 1 }),
            pkt(Direction::ServerToClient, PacketKind::Data { seq: 1 }),
            pkt(Direction::ServerToClient, PacketKind::Data { seq: 1 }),
        ];
        let (syn, data) = count_retransmissions(&t, &mut Vec::new());
        assert_eq!(syn, 2);
        assert_eq!(data, 1 + 2); // one request dupe + two data dupes
    }

    #[test]
    fn client_and_server_seq_spaces_are_distinct() {
        let t = vec![
            pkt(Direction::ClientToServer, PacketKind::Request { seq: 0 }),
            pkt(Direction::ServerToClient, PacketKind::Data { seq: 0 }),
        ];
        let (_, data) = count_retransmissions(&t, &mut Vec::new());
        assert_eq!(data, 0, "same seq in different directions is not a dupe");
    }

    #[test]
    fn interleaved_duplicates_match_the_definition() {
        // Request and data copies interleaved, the same seqs in both
        // directions, and one data seq copied three times out of order.
        use Direction::{ClientToServer as C, ServerToClient as S};
        use PacketKind::{Data, Request};
        let t: Trace = [
            (C, PacketKind::Syn),
            (C, PacketKind::Syn),
            (S, PacketKind::SynAck),
            (C, Request { seq: 0 }),
            (S, Data { seq: 1 }),
            (C, Request { seq: 0 }),
            (S, Data { seq: 0 }),
            (S, Data { seq: 2 }),
            (S, Data { seq: 1 }),
            (C, Request { seq: 1 }),
            (S, Data { seq: 0 }),
            (S, Data { seq: 1 }),
            (C, Request { seq: 0 }),
            (S, PacketKind::Fin),
        ]
        .into_iter()
        .map(|(d, k)| pkt(d, k))
        .collect();
        let mut keys = vec![7; 3]; // stale content must not count
        assert_eq!(count_retransmissions(&t, &mut keys), (1, 2 + 1 + 2));
        assert_eq!(count_retransmissions(&t, &mut keys), reference_count(&t));
    }

    /// Over seeded simulated traces of every behaviour that carries data,
    /// loss from 0 to 20 % and sizes from 1 B to 200 KB, the sorted-key
    /// count equals the count by definition.
    #[test]
    fn sorted_count_matches_the_definition_on_simulated_traces() {
        let behaviors = [
            ServerBehavior::Healthy,
            ServerBehavior::StallAfter(3_000),
            ServerBehavior::AcceptNoResponse,
        ];
        let sizes = [1, 1_460, 1_461, 24_500, 200_000];
        let mut rng = SimRng::new(2005);
        let (mut trace, mut keys) = (Vec::new(), Vec::new());
        let mut with_dupes = 0;
        for (i, behavior) in behaviors.iter().cycle().take(900).enumerate() {
            let path = PathQuality {
                loss: (i % 21) as f64 / 100.0,
                rtt: SimDuration::from_millis(80),
            };
            let bytes = sizes[(i / 3) % sizes.len()];
            simulate_connection_into(
                *behavior,
                &path,
                bytes,
                SimTime::from_hours(1),
                &mut rng,
                Some(&mut trace),
            );
            let counted = count_retransmissions(&trace, &mut keys);
            assert_eq!(
                counted,
                reference_count(&trace),
                "case {i} {behavior:?} {bytes} B"
            );
            with_dupes += usize::from(counted.1 > 0);
        }
        assert!(
            with_dupes > 100,
            "lossy paths show duplicates: {with_dupes}"
        );
    }

    /// The cross-validation at the heart of this crate: over many random
    /// scenarios, the verdict inferred from the trace must agree with the
    /// simulator's ground-truth outcome.
    #[test]
    fn trace_classification_matches_ground_truth() {
        let behaviors = [
            ServerBehavior::Healthy,
            ServerBehavior::Unreachable,
            ServerBehavior::Refusing,
            ServerBehavior::AcceptNoResponse,
            ServerBehavior::StallAfter(5_000),
            ServerBehavior::StallAfter(0),
        ];
        let mut rng = SimRng::new(77);
        let mut trace = Vec::new();
        let mut checked = 0;
        for (i, behavior) in behaviors.iter().cycle().take(600).enumerate() {
            let loss = [0.0, 0.01, 0.05][i % 3];
            let path = PathQuality {
                loss,
                rtt: SimDuration::from_millis(60),
            };
            let r = simulate_connection_into(
                *behavior,
                &path,
                20_000,
                SimTime::from_hours(1),
                &mut rng,
                Some(&mut trace),
            );
            let verdict = classify_trace(&trace);
            match r.outcome {
                Ok(()) => assert_eq!(verdict, TraceVerdict::Complete, "case {i} {behavior:?}"),
                Err(kind) => assert_eq!(
                    verdict.failure_kind(),
                    Some(kind),
                    "case {i} {behavior:?} loss {loss}"
                ),
            }
            checked += 1;
        }
        assert_eq!(checked, 600);
    }

    /// Trace-visible retransmissions never exceed sender-side ground truth.
    #[test]
    fn trace_retx_bounded_by_sent_retx() {
        let path = PathQuality {
            loss: 0.08,
            rtt: SimDuration::from_millis(60),
        };
        let mut rng = SimRng::new(99);
        let mut trace = Vec::new();
        let mut keys = Vec::new();
        let mut saw_some = false;
        for _ in 0..100 {
            let r = simulate_connection_into(
                ServerBehavior::Healthy,
                &path,
                40_000,
                SimTime::from_hours(2),
                &mut rng,
                Some(&mut trace),
            );
            let (syn, data) = count_retransmissions(&trace, &mut keys);
            assert_eq!(syn, u32::from(r.syn_retransmissions));
            assert!(
                data <= r.retransmissions_sent,
                "trace {data} > sent {}",
                r.retransmissions_sent
            );
            if data > 0 {
                saw_some = true;
            }
        }
        assert!(saw_some, "8% loss should surface visible duplicates");
    }
}
