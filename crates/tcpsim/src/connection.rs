//! Simulation of one TCP connection.
//!
//! The model is connection-level but reports what the client-side capture
//! point (tcpdump's vantage) sees: every transmission the client makes,
//! and each server→client packet that *arrives*. Retransmissions arise
//! mechanically from per-packet loss: a data segment is retransmitted
//! because either the data or its ACK was lost, so the capture sees a
//! duplicate in ACK-loss cases and nothing in data-loss cases — the same
//! under-count a real client-side capture has.

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

/// One simulated connection, as the client-side capture sees it.
#[derive(Clone, Debug, PartialEq)]
pub struct ConnectionResult {
    /// What reached the capture point: `NoConnection` if no SYN-ACK
    /// arrived, `NoResponse` if no response data arrived, `PartialResponse`
    /// if the orderly close did not arrive, `Ok` otherwise.
    pub outcome: Result<(), TcpFailureKind>,
    /// Response bytes that reached the client.
    pub bytes_delivered: u64,
    /// Wall-clock duration of the attempt (including timeout waits).
    pub duration: SimDuration,
    /// SYNs sent beyond the first.
    pub syn_retransmissions: u8,
    /// Request/data transmissions beyond each segment's first (sender-side
    /// ground truth).
    pub retransmissions_sent: u32,
    /// The duplicates the capture sees: each request transmission after
    /// the first, plus each duplicate data segment that arrives after a
    /// lost ACK. A data segment lost on the way leaves no copy, so this
    /// under-counts [`Self::retransmissions_sent`] as a real client-side
    /// capture does.
    pub retransmissions_visible: u32,
}

/// Simulate one connection attempt starting at `start`.
///
/// `response_bytes` is the size of the index object the server would send
/// when healthy.
pub fn simulate_connection(
    behavior: ServerBehavior,
    path: &PathQuality,
    response_bytes: u64,
    start: SimTime,
    rng: &mut SimRng,
) -> ConnectionResult {
    let res = simulate_connection_inner(behavior, path, response_bytes, start, rng);
    if telemetry::enabled() {
        telemetry::counter!("tcp.connections", 1);
        telemetry::counter!("tcp.syn_retransmissions", u64::from(res.syn_retransmissions));
        telemetry::counter!("tcp.retransmissions_sent", u64::from(res.retransmissions_sent));
        telemetry::histogram!("tcp.duration_us", res.duration.as_micros());
        if let Err(kind) = res.outcome {
            // The model's own outcomes, proxy connects included. A session
            // without a capture coarsens its record's class afterwards, so
            // no coarse class is counted here.
            static FAILURES: telemetry::CounterVec<3> = telemetry::CounterVec::new(
                "tcp.failures",
                ["no_connection", "no_response", "partial_response"],
            );
            FAILURES.add(
                match kind {
                    TcpFailureKind::NoConnection => 0,
                    TcpFailureKind::NoResponse => 1,
                    TcpFailureKind::PartialResponse => 2,
                    TcpFailureKind::NoOrPartialResponse => {
                        unreachable!("the model reports what a capture sees")
                    }
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
) -> ConnectionResult {
    let mut now = start;
    let rtt = |rng: &mut SimRng| path.rtt * rng.normal(0.0, JITTER_SIGMA).exp();

    // ---- SYN handshake ---------------------------------------------------
    let mut established = false;
    let mut syn_retx: u8 = 0;
    for attempt in 0..MAX_SYN_ATTEMPTS {
        if attempt > 0 {
            syn_retx += 1;
        }
        let backoff = SYN_BACKOFF_BASE * (1u64 << attempt);
        // SYN must survive the forward path.
        let syn_arrives = behavior != ServerBehavior::Unreachable && !rng.chance(path.loss);
        if !syn_arrives {
            now += backoff;
            continue;
        }
        if behavior == ServerBehavior::Refusing {
            // RST on the reverse path: no SYN-ACK ever comes.
            if rng.chance(path.loss) {
                now += backoff;
                continue;
            }
            now += rtt(rng);
            break;
        }
        // SYN-ACK on the reverse path.
        if rng.chance(path.loss) {
            now += backoff;
            continue;
        }
        now += rtt(rng);
        established = true;
        break;
    }

    if !established {
        return ConnectionResult {
            outcome: Err(TcpFailureKind::NoConnection),
            bytes_delivered: 0,
            duration: now - start,
            syn_retransmissions: syn_retx,
            retransmissions_sent: 0,
            retransmissions_visible: 0,
        };
    }

    let mut retx_sent: u32 = 0;

    // ---- Request ----------------------------------------------------------
    // The client transmits the HTTP request, retransmitting it while it is
    // lost on the way.
    let mut request_delivered = false;
    for attempt in 0..MAX_SEGMENT_ATTEMPTS {
        if attempt > 0 {
            retx_sent += 1;
            now += RTO;
        }
        if rng.chance(path.loss) {
            continue; // request lost
        }
        // The request arrived. Its ACK may be lost, but the response
        // acknowledges the request, so the client retransmits nothing; the
        // draw stays because every later draw follows it.
        let _ack_lost = rng.chance(path.loss);
        request_delivered = true;
        break;
    }
    // The capture sees every transmission the client makes.
    let mut retx_visible = retx_sent;

    // ---- Response ---------------------------------------------------------
    // What the server sends: all of the response, none of it, or what it
    // sends before it stalls.
    let will_deliver = match behavior {
        _ if !request_delivered => 0,
        ServerBehavior::Healthy => response_bytes,
        ServerBehavior::AcceptNoResponse => 0,
        ServerBehavior::StallAfter(b) => b.min(response_bytes),
        ServerBehavior::Unreachable | ServerBehavior::Refusing => unreachable!("handled above"),
    };

    let total_segments = will_deliver.div_ceil(u64::from(MSS)) as u32;
    let mut delivered_segments: u32 = 0;
    let mut cwnd = INIT_CWND;
    let mut transfer_stalled = false;

    'transfer: while delivered_segments < total_segments {
        let in_round = (total_segments - delivered_segments).min(cwnd);
        let round_start = now;
        let mut round_extra = SimDuration::ZERO;
        for _ in 0..in_round {
            let mut got_through = false;
            for attempt in 0..MAX_SEGMENT_ATTEMPTS {
                if attempt > 0 {
                    retx_sent += 1;
                    round_extra += RTO;
                }
                if rng.chance(path.loss) {
                    continue; // segment lost
                }
                // ACK on the reverse path; loss triggers one spurious
                // retransmission the client sees as a duplicate if it
                // arrives.
                if rng.chance(path.loss) {
                    retx_sent += 1;
                    round_extra += RTO;
                    if !rng.chance(path.loss) {
                        retx_visible += 1;
                    }
                }
                got_through = true;
                break;
            }
            if !got_through {
                transfer_stalled = true;
                now = round_start + round_extra;
                break 'transfer;
            }
            delivered_segments += 1;
        }
        now = round_start + rtt(rng) + round_extra;
        cwnd = (cwnd * 2).min(MAX_CWND);
    }

    let bytes_delivered = (u64::from(delivered_segments) * u64::from(MSS)).min(will_deliver);
    // The orderly close follows only the whole response.
    let closed = !transfer_stalled && will_deliver == response_bytes;
    let outcome = match (bytes_delivered, closed) {
        (0, _) => Err(TcpFailureKind::NoResponse),
        (_, false) => Err(TcpFailureKind::PartialResponse),
        (_, true) => Ok(()),
    };
    if outcome.is_err() {
        // No further progress: the idle rule ends the transaction.
        now += IDLE_TIMEOUT;
    }
    ConnectionResult {
        outcome,
        bytes_delivered,
        duration: now - start,
        syn_retransmissions: syn_retx,
        retransmissions_sent: retx_sent,
        retransmissions_visible: retx_visible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy(loss: f64) -> PathQuality {
        PathQuality {
            loss,
            rtt: SimDuration::from_millis(100),
        }
    }

    fn run(behavior: ServerBehavior, path: PathQuality, bytes: u64, seed: u64) -> ConnectionResult {
        simulate_connection(
            behavior,
            &path,
            bytes,
            SimTime::from_hours(1),
            &mut SimRng::new(seed),
        )
    }

    #[test]
    fn healthy_lossless_completes() {
        let r = run(ServerBehavior::Healthy, lossy(0.0), 30_000, 1);
        assert_eq!(r.outcome, Ok(()));
        assert_eq!(r.bytes_delivered, 30_000);
        assert_eq!(r.syn_retransmissions, 0);
        assert_eq!(r.retransmissions_sent, 0);
        assert_eq!(r.retransmissions_visible, 0);
    }

    #[test]
    fn unreachable_is_no_connection_after_backoffs() {
        let r = run(ServerBehavior::Unreachable, lossy(0.0), 30_000, 2);
        assert_eq!(r.outcome, Err(TcpFailureKind::NoConnection));
        assert_eq!(r.syn_retransmissions, 3);
        // Backoffs 3 + 6 + 12 + 24 = 45 s.
        assert_eq!(r.duration, SimDuration::from_secs(45));
        assert_eq!(r.bytes_delivered, 0);
    }

    #[test]
    fn refusing_fails_fast_with_rst() {
        let r = run(ServerBehavior::Refusing, lossy(0.0), 30_000, 3);
        assert_eq!(r.outcome, Err(TcpFailureKind::NoConnection));
        assert_eq!(r.syn_retransmissions, 0);
        assert!(r.duration < SimDuration::from_secs(1), "RST is fast");
    }

    #[test]
    fn accept_no_response_waits_idle_timeout() {
        let r = run(ServerBehavior::AcceptNoResponse, lossy(0.0), 30_000, 4);
        assert_eq!(r.outcome, Err(TcpFailureKind::NoResponse));
        assert_eq!(r.bytes_delivered, 0);
        assert!(r.duration >= SimDuration::from_secs(60));
    }

    #[test]
    fn stall_mid_transfer_is_partial_response() {
        let r = run(ServerBehavior::StallAfter(10_000), lossy(0.0), 30_000, 5);
        assert_eq!(r.outcome, Err(TcpFailureKind::PartialResponse));
        assert!(r.bytes_delivered > 0 && r.bytes_delivered < 30_000);
        assert!(r.duration >= SimDuration::from_secs(60));
    }

    #[test]
    fn stall_at_zero_is_no_response() {
        let r = run(ServerBehavior::StallAfter(0), lossy(0.0), 30_000, 6);
        assert_eq!(r.outcome, Err(TcpFailureKind::NoResponse));
        assert_eq!(r.bytes_delivered, 0);
    }

    /// A round that stalls on a lost segment keeps the segments before it
    /// that got through: here the first of the first round's two arrives
    /// and the second is lost six times, so the client holds one segment
    /// and no close.
    #[test]
    fn a_stalled_round_keeps_the_segments_that_got_through() {
        let r = run(ServerBehavior::Healthy, lossy(0.5), 30_000, 149);
        assert_eq!(r.outcome, Err(TcpFailureKind::PartialResponse));
        assert_eq!(r.bytes_delivered, 1_460);
    }

    #[test]
    fn lossy_path_produces_retransmissions_but_completes() {
        let mut total_retx = 0u32;
        let mut completed = 0;
        for seed in 0..50 {
            let r = run(ServerBehavior::Healthy, lossy(0.05), 60_000, 100 + seed);
            if r.outcome.is_ok() {
                completed += 1;
                assert_eq!(r.bytes_delivered, 60_000);
            }
            total_retx += r.retransmissions_sent;
        }
        assert!(completed >= 45, "5% loss rarely kills a transfer: {completed}");
        assert!(total_retx > 50, "retransmissions occur: {total_retx}");
    }

    /// The capture sees at most what the sender retransmitted, and a lossy
    /// path shows some of it.
    #[test]
    fn visible_retransmissions_bounded_by_sent() {
        let mut visible = 0;
        for seed in 0..100 {
            let r = run(ServerBehavior::Healthy, lossy(0.08), 40_000, 99 + seed);
            assert!(r.retransmissions_visible <= r.retransmissions_sent, "{r:?}");
            visible += r.retransmissions_visible;
        }
        assert!(visible > 0, "8% loss should surface visible duplicates");
    }

    /// Without a data phase every retransmission is the client's own
    /// request, and the capture sees each one.
    #[test]
    fn request_retransmissions_are_all_visible() {
        let mut sent = 0;
        for seed in 0..100 {
            let r = run(ServerBehavior::AcceptNoResponse, lossy(0.3), 40_000, seed);
            assert_eq!(r.retransmissions_visible, r.retransmissions_sent, "{r:?}");
            sent += r.retransmissions_sent;
        }
        assert!(sent > 0, "30% loss retransmits requests");
    }

    #[test]
    fn total_loss_never_establishes() {
        let r = run(ServerBehavior::Healthy, lossy(1.0), 10_000, 7);
        assert_eq!(r.outcome, Err(TcpFailureKind::NoConnection));
    }

    #[test]
    fn deterministic_for_seed() {
        let path = PathQuality {
            loss: 0.03,
            rtt: SimDuration::from_millis(80),
        };
        let a = run(ServerBehavior::Healthy, path, 45_000, 42);
        let b = run(ServerBehavior::Healthy, path, 45_000, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn duration_scales_with_size() {
        let small = run(ServerBehavior::Healthy, lossy(0.0), 1_000, 8);
        let large = run(ServerBehavior::Healthy, lossy(0.0), 200_000, 8);
        assert!(large.duration > small.duration);
        // Slow start: 200 kB at mss 1460 is 137 segments; with cwnd doubling
        // 2,4,8,16,32,32,... that is ~7 rounds plus handshake.
        assert!(large.duration < SimDuration::from_secs(5));
    }

    /// Over every behaviour and loss from 0 to 5 %, the outcome is what
    /// reached the client: no bytes without a connection or a response,
    /// some but not all for a partial one, all of them for a success.
    #[test]
    fn outcome_reads_what_arrived() {
        let behaviors = [
            ServerBehavior::Healthy,
            ServerBehavior::Unreachable,
            ServerBehavior::Refusing,
            ServerBehavior::AcceptNoResponse,
            ServerBehavior::StallAfter(5_000),
            ServerBehavior::StallAfter(0),
        ];
        let mut rng = SimRng::new(77);
        for (i, behavior) in behaviors.iter().cycle().take(600).enumerate() {
            let path = PathQuality {
                loss: [0.0, 0.01, 0.05][i % 3],
                rtt: SimDuration::from_millis(60),
            };
            let r = simulate_connection(*behavior, &path, 20_000, SimTime::from_hours(1), &mut rng);
            let bytes = r.bytes_delivered;
            match r.outcome {
                Ok(()) => assert_eq!(bytes, 20_000, "case {i} {behavior:?}"),
                Err(TcpFailureKind::PartialResponse) => {
                    assert!(bytes > 0 && bytes < 20_000, "case {i} {behavior:?}")
                }
                Err(_) => assert_eq!(bytes, 0, "case {i} {behavior:?}"),
            }
        }
    }
}
