//! Simulation of one TCP connection.
//!
//! The model is connection-level but packet-faithful where the paper's
//! post-processing looks: every client transmission is captured, and
//! server→client segments are captured when they *arrive* (the client-side
//! vantage point of tcpdump). Retransmissions arise mechanically from
//! per-packet loss: a data segment is retransmitted because either the data
//! or its ACK was lost, so the client-visible trace shows duplicate sequence
//! numbers for ACK-loss cases and nothing for data-loss cases — the same
//! under-count a real client-side capture has.

use crate::packet::{Direction, PacketKind, Trace, TracePacket};
use model::{SimDuration, SimTime, TcpFailureKind};
use netsim::SimRng;

/// Ground-truth server/path condition for the connection attempt.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ServerBehavior {
    /// Normal service: full response delivered (modulo path loss).
    Healthy,
    /// SYNs vanish: host down, or network partition on the path.
    Unreachable,
    /// SYNs answered with RST: no listener / overload policy.
    Refusing,
    /// Handshake completes but the application never responds.
    AcceptNoResponse,
    /// Response stalls after this many bytes (crash/overload mid-transfer).
    StallAfter(u64),
}

/// Path quality between this client and this replica at this instant.
#[derive(Clone, Copy, Debug)]
pub struct PathQuality {
    /// Per-packet loss probability, each direction.
    pub loss: f64,
    /// Mean round-trip time.
    pub rtt: SimDuration,
}

impl Default for PathQuality {
    fn default() -> Self {
        PathQuality {
            loss: 0.005,
            rtt: SimDuration::from_millis(80),
        }
    }
}

/// Total SYNs sent before the client gives up (first + retransmissions).
const MAX_SYN_ATTEMPTS: u8 = 4;
/// First SYN retransmission timeout; doubles per attempt (3s, 6s, 12s…).
const SYN_BACKOFF_BASE: SimDuration = SimDuration::from_secs(3);
/// The measurement client's idle rule: abort when the connection makes no
/// progress for this long (Section 3.1: 60 seconds).
const IDLE_TIMEOUT: SimDuration = SimDuration::from_secs(60);
/// Retransmission timeout for request/data segments.
const RTO: SimDuration = SimDuration::from_secs(3);
/// Transmissions per segment before the transfer is declared stalled.
const MAX_SEGMENT_ATTEMPTS: u8 = 6;
/// Maximum segment size for the response body.
const MSS: u32 = 1460;
/// Initial congestion window (segments); doubles per round (slow start).
const INIT_CWND: u32 = 2;
/// Congestion-window cap (segments).
const MAX_CWND: u32 = 32;
/// Multiplicative latency jitter sigma.
const JITTER_SIGMA: f64 = 0.2;

/// Everything observed about one simulated connection.
#[derive(Clone, Debug)]
pub struct ConnectionResult {
    /// Ground-truth outcome: `Ok` iff the full response was delivered.
    pub outcome: Result<(), TcpFailureKind>,
    /// Did the SYN handshake complete?
    pub established: bool,
    /// Response bytes that reached the client.
    pub bytes_delivered: u64,
    /// Wall-clock duration of the attempt (including timeout waits).
    pub duration: SimDuration,
    /// SYNs sent beyond the first.
    pub syn_retransmissions: u8,
    /// Request/data transmissions beyond each segment's first (sender-side
    /// ground truth; the trace-visible count can be lower).
    pub retransmissions_sent: u32,
}

struct Capture<'a> {
    trace: Option<&'a mut Trace>,
}

impl<'a> Capture<'a> {
    fn new(buffer: Option<&'a mut Trace>) -> Self {
        let mut cap = Capture { trace: buffer };
        if let Some(t) = cap.trace.as_mut() {
            t.clear();
        }
        cap
    }

    fn push(&mut self, time: SimTime, direction: Direction, kind: PacketKind) {
        if let Some(t) = self.trace.as_mut() {
            t.push(TracePacket {
                time,
                direction,
                kind,
            });
        }
    }
}

/// Simulate one connection attempt starting at `start`.
///
/// `response_bytes` is the size of the index object the server would send
/// when healthy. Pass a `capture` buffer to record the client-side packet
/// trace (the BB clients in the paper ran without capture): it is cleared
/// and filled, so the hot path reuses one allocation across connections.
pub fn simulate_connection_into(
    behavior: ServerBehavior,
    path: &PathQuality,
    response_bytes: u64,
    start: SimTime,
    rng: &mut SimRng,
    capture: Option<&mut Trace>,
) -> ConnectionResult {
    let res = simulate_connection_inner(behavior, path, response_bytes, start, rng, capture);
    if telemetry::enabled() {
        telemetry::counter!("tcp.connections", 1);
        telemetry::counter!("tcp.syn_retransmissions", u64::from(res.syn_retransmissions));
        telemetry::counter!("tcp.retransmissions_sent", u64::from(res.retransmissions_sent));
        telemetry::histogram!("tcp.duration_us", res.duration.as_micros());
        if let Err(kind) = res.outcome {
            static FAILURES: telemetry::CounterVec<4> = telemetry::CounterVec::new(
                "tcp.failures",
                ["no_connection", "no_response", "partial_response", "no_or_partial_response"],
            );
            FAILURES.add(
                match kind {
                    TcpFailureKind::NoConnection => 0,
                    TcpFailureKind::NoResponse => 1,
                    TcpFailureKind::PartialResponse => 2,
                    TcpFailureKind::NoOrPartialResponse => 3,
                },
                1,
            );
        }
    }
    res
}

fn simulate_connection_inner(
    behavior: ServerBehavior,
    path: &PathQuality,
    response_bytes: u64,
    start: SimTime,
    rng: &mut SimRng,
    capture: Option<&mut Trace>,
) -> ConnectionResult {
    let mut cap = Capture::new(capture);
    let mut now = start;
    let rtt = |rng: &mut SimRng| path.rtt * rng.normal(0.0, JITTER_SIGMA).exp();

    // ---- SYN handshake ---------------------------------------------------
    let mut established = false;
    let mut syn_retx: u8 = 0;
    let mut refused = false;
    for attempt in 0..MAX_SYN_ATTEMPTS {
        if attempt > 0 {
            syn_retx += 1;
        }
        cap.push(now, Direction::ClientToServer, PacketKind::Syn);
        let backoff = SYN_BACKOFF_BASE * (1u64 << attempt);
        // SYN must survive the forward path.
        let syn_arrives = behavior != ServerBehavior::Unreachable && !rng.chance(path.loss);
        if !syn_arrives {
            now += backoff;
            continue;
        }
        if behavior == ServerBehavior::Refusing {
            // RST on the reverse path.
            if rng.chance(path.loss) {
                now += backoff;
                continue;
            }
            let t_rst = now + rtt(rng);
            cap.push(t_rst, Direction::ServerToClient, PacketKind::Rst);
            now = t_rst;
            refused = true;
            break;
        }
        // SYN-ACK on the reverse path.
        if rng.chance(path.loss) {
            now += backoff;
            continue;
        }
        let t_synack = now + rtt(rng);
        cap.push(t_synack, Direction::ServerToClient, PacketKind::SynAck);
        now = t_synack;
        cap.push(now, Direction::ClientToServer, PacketKind::Ack);
        established = true;
        break;
    }

    if !established {
        return ConnectionResult {
            outcome: Err(TcpFailureKind::NoConnection),
            established: false,
            bytes_delivered: 0,
            duration: now - start,
            syn_retransmissions: syn_retx,
            retransmissions_sent: 0,
        };
    }
    if refused {
        // Counted as established=false even though we got a packet back.
        return ConnectionResult {
            outcome: Err(TcpFailureKind::NoConnection),
            established: false,
            bytes_delivered: 0,
            duration: now - start,
            syn_retransmissions: syn_retx,
            retransmissions_sent: 0,
        };
    }

    let mut retx_sent: u32 = 0;

    // ---- Request ----------------------------------------------------------
    // The client transmits the HTTP request; every transmission is captured
    // locally. The request is retransmitted on (data or ack) loss.
    let mut request_delivered = false;
    for attempt in 0..MAX_SEGMENT_ATTEMPTS {
        if attempt > 0 {
            retx_sent += 1;
            now += RTO;
        }
        cap.push(now, Direction::ClientToServer, PacketKind::Request { seq: 0 });
        if rng.chance(path.loss) {
            continue; // request lost
        }
        if rng.chance(path.loss) {
            // Request arrived, ACK lost: the server has it, but the client
            // retransmits once more before the (piggy-backed) response makes
            // progress evident. Treat as delivered — data will follow.
            request_delivered = true;
            break;
        }
        request_delivered = true;
        break;
    }
    if !request_delivered {
        // Pathological loss: the connection makes no progress; the client's
        // idle rule fires.
        now += IDLE_TIMEOUT;
        return ConnectionResult {
            outcome: Err(TcpFailureKind::NoResponse),
            established: true,
            bytes_delivered: 0,
            duration: now - start,
            syn_retransmissions: syn_retx,
            retransmissions_sent: retx_sent,
        };
    }

    // ---- Response ---------------------------------------------------------
    let will_deliver = match behavior {
        ServerBehavior::Healthy => response_bytes,
        ServerBehavior::AcceptNoResponse => 0,
        ServerBehavior::StallAfter(b) => b.min(response_bytes),
        ServerBehavior::Unreachable | ServerBehavior::Refusing => unreachable!("handled above"),
    };
    let stalls = will_deliver < response_bytes;

    if will_deliver == 0 {
        now += IDLE_TIMEOUT;
        return ConnectionResult {
            outcome: Err(TcpFailureKind::NoResponse),
            established: true,
            bytes_delivered: 0,
            duration: now - start,
            syn_retransmissions: syn_retx,
            retransmissions_sent: retx_sent,
        };
    }

    let total_segments = will_deliver.div_ceil(u64::from(MSS)) as u32;
    let mut delivered_segments: u32 = 0;
    let mut cwnd = INIT_CWND;
    let mut transfer_stalled = false;

    'transfer: while delivered_segments < total_segments {
        let in_round = (total_segments - delivered_segments).min(cwnd);
        let round_start = now;
        let mut round_extra = SimDuration::ZERO;
        for i in 0..in_round {
            let seq = delivered_segments + i;
            let mut got_through = false;
            for attempt in 0..MAX_SEGMENT_ATTEMPTS {
                if attempt > 0 {
                    retx_sent += 1;
                    round_extra += RTO;
                }
                let arrives = !rng.chance(path.loss);
                if arrives {
                    cap.push(
                        round_start + round_extra,
                        Direction::ServerToClient,
                        PacketKind::Data { seq },
                    );
                    // ACK on the reverse path; loss triggers one spurious
                    // retransmission the client will see as a duplicate.
                    if rng.chance(path.loss) {
                        retx_sent += 1;
                        round_extra += RTO;
                        if !rng.chance(path.loss) {
                            cap.push(
                                round_start + round_extra,
                                Direction::ServerToClient,
                                PacketKind::Data { seq },
                            );
                        }
                    }
                    got_through = true;
                    break;
                }
            }
            if !got_through {
                transfer_stalled = true;
                now = round_start + round_extra;
                break 'transfer;
            }
        }
        delivered_segments += in_round;
        now = round_start + rtt(rng) + round_extra;
        cwnd = (cwnd * 2).min(MAX_CWND);
    }

    let bytes_delivered = (u64::from(delivered_segments) * u64::from(MSS)).min(will_deliver);

    if transfer_stalled || stalls {
        // No further progress: the idle rule ends the transaction.
        now += IDLE_TIMEOUT;
        let outcome = if bytes_delivered == 0 {
            Err(TcpFailureKind::NoResponse)
        } else {
            Err(TcpFailureKind::PartialResponse)
        };
        return ConnectionResult {
            outcome,
            established: true,
            bytes_delivered,
            duration: now - start,
            syn_retransmissions: syn_retx,
            retransmissions_sent: retx_sent,
        };
    }

    // Orderly completion.
    cap.push(now, Direction::ServerToClient, PacketKind::Fin);
    cap.push(now, Direction::ClientToServer, PacketKind::Ack);
    ConnectionResult {
        outcome: Ok(()),
        established: true,
        bytes_delivered,
        duration: now - start,
        syn_retransmissions: syn_retx,
        retransmissions_sent: retx_sent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossless() -> PathQuality {
        PathQuality {
            loss: 0.0,
            rtt: SimDuration::from_millis(100),
        }
    }

    /// One captured connection: the result and its client-side trace.
    fn run(
        behavior: ServerBehavior,
        path: PathQuality,
        bytes: u64,
        seed: u64,
    ) -> (ConnectionResult, Trace) {
        let mut trace = Vec::new();
        let r = simulate_connection_into(
            behavior,
            &path,
            bytes,
            SimTime::from_hours(1),
            &mut SimRng::new(seed),
            Some(&mut trace),
        );
        (r, trace)
    }

    #[test]
    fn healthy_lossless_completes() {
        let (r, trace) = run(ServerBehavior::Healthy, lossless(), 30_000, 1);
        assert_eq!(r.outcome, Ok(()));
        assert!(r.established);
        assert_eq!(r.bytes_delivered, 30_000);
        assert_eq!(r.syn_retransmissions, 0);
        assert_eq!(r.retransmissions_sent, 0);
        assert!(trace.iter().any(|p| p.is_syn_ack()));
        assert!(trace.iter().any(|p| matches!(p.kind, PacketKind::Fin)));
        // 30000/1460 = 21 segments
        assert_eq!(trace.iter().filter(|p| p.is_server_data()).count(), 21);
    }

    #[test]
    fn unreachable_is_no_connection_after_backoffs() {
        let (r, trace) = run(ServerBehavior::Unreachable, lossless(), 30_000, 2);
        assert_eq!(r.outcome, Err(TcpFailureKind::NoConnection));
        assert!(!r.established);
        assert_eq!(r.syn_retransmissions, 3);
        // Backoffs 3 + 6 + 12 + 24 = 45 s.
        assert_eq!(r.duration, SimDuration::from_secs(45));
        assert_eq!(trace.iter().filter(|p| p.is_syn()).count(), 4);
        assert!(!trace.iter().any(|p| p.is_syn_ack()));
    }

    #[test]
    fn refusing_fails_fast_with_rst() {
        let (r, trace) = run(ServerBehavior::Refusing, lossless(), 30_000, 3);
        assert_eq!(r.outcome, Err(TcpFailureKind::NoConnection));
        assert!(!r.established);
        assert!(r.duration < SimDuration::from_secs(1), "RST is fast");
        assert!(trace.iter().any(|p| p.is_rst()));
    }

    #[test]
    fn accept_no_response_waits_idle_timeout() {
        let (r, trace) = run(ServerBehavior::AcceptNoResponse, lossless(), 30_000, 4);
        assert_eq!(r.outcome, Err(TcpFailureKind::NoResponse));
        assert!(r.established);
        assert_eq!(r.bytes_delivered, 0);
        assert!(r.duration >= SimDuration::from_secs(60));
        assert!(trace.iter().any(|p| p.is_syn_ack()));
        assert!(!trace.iter().any(|p| p.is_server_data()));
    }

    #[test]
    fn stall_mid_transfer_is_partial_response() {
        let (r, trace) = run(ServerBehavior::StallAfter(10_000), lossless(), 30_000, 5);
        assert_eq!(r.outcome, Err(TcpFailureKind::PartialResponse));
        assert!(r.established);
        assert!(r.bytes_delivered > 0 && r.bytes_delivered < 30_000);
        assert!(r.duration >= SimDuration::from_secs(60));
        assert!(trace.iter().any(|p| p.is_server_data()));
    }

    #[test]
    fn stall_at_zero_is_no_response() {
        let (r, _) = run(ServerBehavior::StallAfter(0), lossless(), 30_000, 6);
        assert_eq!(r.outcome, Err(TcpFailureKind::NoResponse));
        assert_eq!(r.bytes_delivered, 0);
    }

    #[test]
    fn lossy_path_produces_retransmissions_but_completes() {
        let path = PathQuality {
            loss: 0.05,
            rtt: SimDuration::from_millis(100),
        };
        let mut total_retx = 0u32;
        let mut completed = 0;
        for seed in 0..50 {
            let (r, _) = run(ServerBehavior::Healthy, path, 60_000, 100 + seed);
            if r.outcome.is_ok() {
                completed += 1;
                assert_eq!(r.bytes_delivered, 60_000);
            }
            total_retx += r.retransmissions_sent;
        }
        assert!(completed >= 45, "5% loss rarely kills a transfer: {completed}");
        assert!(total_retx > 50, "retransmissions occur: {total_retx}");
    }

    #[test]
    fn total_loss_never_establishes() {
        let path = PathQuality {
            loss: 1.0,
            rtt: SimDuration::from_millis(100),
        };
        let (r, _) = run(ServerBehavior::Healthy, path, 10_000, 7);
        assert_eq!(r.outcome, Err(TcpFailureKind::NoConnection));
    }

    #[test]
    fn deterministic_for_seed() {
        let path = PathQuality {
            loss: 0.03,
            rtt: SimDuration::from_millis(80),
        };
        let (a, trace_a) = run(ServerBehavior::Healthy, path, 45_000, 42);
        let (b, trace_b) = run(ServerBehavior::Healthy, path, 45_000, 42);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.duration, b.duration);
        assert_eq!(a.retransmissions_sent, b.retransmissions_sent);
        assert_eq!(trace_a, trace_b);
    }

    #[test]
    fn into_reuses_buffer_like_a_fresh_one() {
        let path = PathQuality {
            loss: 0.03,
            rtt: SimDuration::from_millis(80),
        };
        let mut buf = Vec::new();
        for seed in 0..5 {
            let (fresh, fresh_trace) = run(ServerBehavior::Healthy, path, 45_000, 900 + seed);
            let r = simulate_connection_into(
                ServerBehavior::Healthy,
                &path,
                45_000,
                SimTime::from_hours(1),
                &mut SimRng::new(900 + seed),
                Some(&mut buf),
            );
            assert_eq!(r.outcome, fresh.outcome);
            assert_eq!(r.duration, fresh.duration);
            assert_eq!(r.retransmissions_sent, fresh.retransmissions_sent);
            assert_eq!(buf, fresh_trace, "stale packets cleared");
        }
    }

    #[test]
    fn duration_scales_with_size() {
        let (small, _) = run(ServerBehavior::Healthy, lossless(), 1_000, 8);
        let (large, _) = run(ServerBehavior::Healthy, lossless(), 200_000, 8);
        assert!(large.duration > small.duration);
        // Slow start: 200 kB at mss 1460 is 137 segments; with cwnd doubling
        // 2,4,8,16,32,32,... that is ~7 rounds plus handshake.
        assert!(large.duration < SimDuration::from_secs(5));
    }

    #[test]
    fn trace_can_be_disabled() {
        let r = simulate_connection_into(
            ServerBehavior::Healthy,
            &lossless(),
            10_000,
            SimTime::ZERO,
            &mut SimRng::new(9),
            None,
        );
        assert_eq!(r.outcome, Ok(()));
        let (captured, _) = run(ServerBehavior::Healthy, lossless(), 10_000, 9);
        assert_eq!(r.duration, captured.duration, "capture consumes no draws");
    }

    #[test]
    fn trace_times_are_monotonic() {
        let path = PathQuality {
            loss: 0.05,
            rtt: SimDuration::from_millis(100),
        };
        for seed in 0..20 {
            let (_, trace) = run(ServerBehavior::Healthy, path, 50_000, 300 + seed);
            for w in trace.windows(2) {
                assert!(w[0].time <= w[1].time, "non-monotonic trace");
            }
        }
    }
}
