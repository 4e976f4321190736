//! Forensic transaction traces: the phase-level causal record of one access.
//!
//! A [`TxnTrace`] is an ordered list of [`TraceEvent`]s — every DNS attempt,
//! TCP connect, and HTTP exchange of one transaction — each stamped with the
//! ground-truth [`FaultSet`] active at that instant. Capture reuses the
//! flight-recorder probes (pure timeline lookups, no RNG), so a traced run
//! is bit-identical to an untraced one; the trace rides beside the dataset
//! like the [`ProvenanceLog`](crate::ProvenanceLog) sidecar does.
//!
//! A [`TraceExemplar`] is one sampled trace plus the identifiers needed to
//! find the record it explains. The workload's tail-sampling store keeps a
//! bounded number of exemplars per (blame class × archetype) bucket —
//! failures first, latency outliers among successes — so drill-down
//! forensics stay affordable at millions of transactions.

use crate::failure::{DnsFailureKind, TcpFailureKind};
use crate::provenance::FaultSet;
use crate::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;

/// One causal step of a transaction, stamped with the ground-truth faults
/// active while it ran. The stamp is empty when no structural fault covered
/// the instant; for HTTP events it carries the vantage faults only when the
/// exchange itself observed them (proxied fetches).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// One name resolution: the initial lookup or a redirect hop's.
    Dns {
        host: String,
        at: SimTime,
        elapsed: SimDuration,
        outcome: Result<(), DnsFailureKind>,
        truth: FaultSet,
    },
    /// One TCP connection attempt (SYN through close or failure).
    Connect {
        replica: Ipv4Addr,
        at: SimTime,
        elapsed: SimDuration,
        outcome: Result<(), TcpFailureKind>,
        syn_retransmissions: u8,
        truth: FaultSet,
    },
    /// One HTTP exchange on an established connection.
    Http {
        host: String,
        at: SimTime,
        status: u16,
        redirect: Option<String>,
        truth: FaultSet,
    },
}

impl TraceEvent {
    /// Phase name for rendering.
    pub fn phase(&self) -> &'static str {
        match self {
            TraceEvent::Dns { .. } => "dns",
            TraceEvent::Connect { .. } => "connect",
            TraceEvent::Http { .. } => "http",
        }
    }

    /// When the step started.
    pub fn at(&self) -> SimTime {
        match self {
            TraceEvent::Dns { at, .. }
            | TraceEvent::Connect { at, .. }
            | TraceEvent::Http { at, .. } => *at,
        }
    }

    /// How long the step took (HTTP exchanges are instantaneous at the
    /// trace's granularity — their cost is carried by the connection).
    pub fn elapsed(&self) -> SimDuration {
        match self {
            TraceEvent::Dns { elapsed, .. } | TraceEvent::Connect { elapsed, .. } => *elapsed,
            TraceEvent::Http { .. } => SimDuration::ZERO,
        }
    }

    /// The ground-truth stamp of the step.
    pub fn truth(&self) -> FaultSet {
        match self {
            TraceEvent::Dns { truth, .. }
            | TraceEvent::Connect { truth, .. }
            | TraceEvent::Http { truth, .. } => *truth,
        }
    }

    /// Did the step itself fail?
    pub fn failed(&self) -> bool {
        match self {
            TraceEvent::Dns { outcome, .. } => outcome.is_err(),
            TraceEvent::Connect { outcome, .. } => outcome.is_err(),
            TraceEvent::Http { status, .. } => !(200..400).contains(status),
        }
    }
}

/// The ordered causal timeline of one transaction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TxnTrace {
    pub events: Vec<TraceEvent>,
}

impl TxnTrace {
    /// Union of every event's truth stamp: everything that was wrong at any
    /// point of the transaction.
    pub fn truth(&self) -> FaultSet {
        self.events
            .iter()
            .fold(FaultSet::EMPTY, |acc, e| acc | e.truth())
    }
}

/// One sampled transaction trace, annotated with the identifiers the
/// analysis uses to locate the record it explains.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceExemplar {
    pub client: u16,
    pub site: u16,
    /// Hour bin of the transaction start.
    pub hour: u32,
    /// Index of the explained record in `Dataset::records`. Per-client
    /// local until collection, then rebased to the global post-drop index.
    pub record_index: usize,
    pub start: SimTime,
    /// Total transaction latency (DNS plus download phases), microseconds.
    pub duration_us: u64,
    pub failed: bool,
    /// Union truth over the whole transaction (== `trace.truth()`).
    pub truth: FaultSet,
    pub trace: TxnTrace,
}

impl TraceExemplar {
    /// The `(client, site, hour)` lookup key — what `explain` queries by
    /// and what the HTML waterfall anchors on.
    pub fn key(&self) -> (u16, u16, u32) {
        (self.client, self.site, self.hour)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dns(kind: Option<DnsFailureKind>, truth: FaultSet) -> TraceEvent {
        TraceEvent::Dns {
            host: "www.example.com".to_string(),
            at: SimTime::from_secs(10),
            elapsed: SimDuration::from_millis(40),
            outcome: match kind {
                None => Ok(()),
                Some(k) => Err(k),
            },
            truth,
        }
    }

    #[test]
    fn phases_and_accessors() {
        let d = dns(None, FaultSet::LDNS_DOWN);
        assert_eq!(d.phase(), "dns");
        assert_eq!(d.at(), SimTime::from_secs(10));
        assert_eq!(d.elapsed(), SimDuration::from_millis(40));
        assert_eq!(d.truth(), FaultSet::LDNS_DOWN);
        assert!(!d.failed());
        assert!(dns(Some(DnsFailureKind::LdnsTimeout), FaultSet::EMPTY).failed());

        let c = TraceEvent::Connect {
            replica: Ipv4Addr::new(10, 0, 0, 1),
            at: SimTime::from_secs(11),
            elapsed: SimDuration::from_secs(45),
            outcome: Err(TcpFailureKind::NoConnection),
            syn_retransmissions: 3,
            truth: FaultSet::REPLICA_DOWN,
        };
        assert_eq!(c.phase(), "connect");
        assert!(c.failed());

        let h = TraceEvent::Http {
            host: "www.example.com".to_string(),
            at: SimTime::from_secs(12),
            status: 301,
            redirect: Some("example.com".to_string()),
            truth: FaultSet::EMPTY,
        };
        assert_eq!(h.phase(), "http");
        assert_eq!(h.elapsed(), SimDuration::ZERO);
        assert!(!h.failed(), "a redirect is not a failure");
        let gone = TraceEvent::Http {
            host: "www.example.com".to_string(),
            at: SimTime::from_secs(12),
            status: 503,
            redirect: None,
            truth: FaultSet::EMPTY,
        };
        assert!(gone.failed());
    }

    #[test]
    fn trace_truth_unions_events() {
        let trace = TxnTrace {
            events: vec![
                dns(None, FaultSet::LDNS_DOWN),
                TraceEvent::Connect {
                    replica: Ipv4Addr::new(10, 0, 0, 1),
                    at: SimTime::from_secs(11),
                    elapsed: SimDuration::from_millis(200),
                    outcome: Ok(()),
                    syn_retransmissions: 0,
                    truth: FaultSet::SERVER_DEGRADED,
                },
            ],
        };
        assert_eq!(trace.truth(), FaultSet::LDNS_DOWN | FaultSet::SERVER_DEGRADED);
        assert_eq!(TxnTrace::default().truth(), FaultSet::EMPTY);
    }

    #[test]
    fn exemplar_key() {
        let x = TraceExemplar {
            client: 3,
            site: 14,
            hour: 7,
            record_index: 99,
            start: SimTime::from_hours(7),
            duration_us: 1_234,
            failed: true,
            truth: FaultSet::CENSORED,
            trace: TxnTrace::default(),
        };
        assert_eq!(x.key(), (3, 14, 7));
    }
}
