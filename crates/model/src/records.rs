//! Measurement records.
//!
//! Post-processing in the paper (Section 3.5) reduces each download to a
//! *performance record*: success/failure of the DNS lookup and of the
//! download, lookup and download times, the failure code, plus identifying
//! information (client, URL, server IP, time). Trace post-processing then
//! adds the TCP-failure cause and a packet-loss (retransmission) count. We
//! mirror that structure exactly; [`PerformanceRecord`] is one transaction
//! and [`ConnectionRecord`] is one TCP connection attempt (there are more
//! connections than transactions because of HTTP redirects and wget retries).

use crate::failure::{DnsFailureKind, FailureClass, TcpFailureKind};
use crate::ids::{ClientId, ProxyId, SiteId};
use crate::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;

/// The result of one transaction (one wget invocation for one URL).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TransactionOutcome {
    /// The index object was downloaded in full.
    Success,
    /// The transaction failed; the class tells at which step and how.
    Failure(FailureClass),
}

impl TransactionOutcome {
    pub fn is_success(&self) -> bool {
        matches!(self, TransactionOutcome::Success)
    }

    pub fn is_failure(&self) -> bool {
        !self.is_success()
    }

    /// The failure class if the transaction failed.
    pub fn failure(&self) -> Option<FailureClass> {
        match self {
            TransactionOutcome::Success => None,
            TransactionOutcome::Failure(c) => Some(*c),
        }
    }
}

/// Outcome of the iterative `dig` that follows every wget access (Section
/// 3.4, step 3). Used in Section 4.2 to cross-check wget's DNS failures.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DigOutcome {
    /// The iterative walk resolved the name.
    Resolved,
    /// The iterative walk also failed.
    Failed(DnsFailureKind),
    /// The dig was not run (e.g. proxied CN clients do not resolve names).
    NotRun,
}

/// One transaction: a wget invocation downloading one URL's index object.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PerformanceRecord {
    /// Which client performed the access.
    pub client: ClientId,
    /// Which website (the hostname in the URL).
    pub site: SiteId,
    /// The replica IP the transfer (last connection) went to, if resolution
    /// got that far. For proxied clients this is the proxy's choice and is
    /// not visible; it stays `None`.
    pub replica: Option<Ipv4Addr>,
    /// When the transaction started.
    pub start: SimTime,
    /// DNS lookup time on success; the failure kind otherwise. Proxied
    /// clients delegate resolution to the proxy and record `Ok(ZERO)` here
    /// when the proxy answered at all.
    pub dns: Result<SimDuration, DnsFailureKind>,
    /// Overall outcome.
    pub outcome: TransactionOutcome,
    /// Total download time (from first request byte to last response byte),
    /// when the transfer produced any timing.
    pub download_time: Option<SimDuration>,
    /// Bytes of response body received (may be non-zero for failed partial
    /// transfers).
    pub bytes_received: u64,
    /// Number of TCP connections this transaction attempted (retries +
    /// redirects).
    pub connections_attempted: u16,
    /// Retransmissions the client-side capture saw over the access's
    /// connections, used for the packet-loss correlation of Section 4.1.3.
    /// `None` when the client records no capture (BB clients), the access
    /// went through a proxy, or its first lookup failed.
    pub retransmissions: Option<u32>,
    /// Outcome of the follow-up iterative dig.
    pub dig: DigOutcome,
    /// The proxy the access went through, for CN clients.
    pub proxy: Option<ProxyId>,
}

impl PerformanceRecord {
    /// Hour bin of the transaction start (the paper's episode granularity).
    pub fn hour(&self) -> u32 {
        self.start.hour_bin()
    }

    /// Whether this transaction failed.
    pub fn failed(&self) -> bool {
        self.outcome.is_failure()
    }

    /// The failure class, if failed.
    pub fn failure(&self) -> Option<FailureClass> {
        self.outcome.failure()
    }
}

/// One TCP connection attempt (SYN through close or failure).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ConnectionRecord {
    pub client: ClientId,
    pub site: SiteId,
    /// Destination replica IP.
    pub replica: Ipv4Addr,
    /// When the first SYN was sent.
    pub start: SimTime,
    /// `Ok(())` if the connection carried the full response; the TCP failure
    /// kind otherwise.
    pub outcome: Result<(), TcpFailureKind>,
    /// SYN retransmissions before success or giving up.
    pub syn_retransmissions: u8,
    /// Retransmissions the client-side capture saw in the connection: each
    /// request retransmission and each duplicate data segment. `None` when
    /// the client records no capture (BB clients).
    pub retransmissions: Option<u32>,
}

impl ConnectionRecord {
    /// Hour bin of the connection start.
    pub fn hour(&self) -> u32 {
        self.start.hour_bin()
    }

    pub fn failed(&self) -> bool {
        self.outcome.is_err()
    }

    /// The failure kind, if failed.
    pub fn failure(&self) -> Option<TcpFailureKind> {
        self.outcome.err()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::{DnsFailureKind, FailureClass};

    fn record(outcome: TransactionOutcome) -> PerformanceRecord {
        PerformanceRecord {
            client: ClientId(3),
            site: SiteId(14),
            replica: Some(Ipv4Addr::new(203, 0, 113, 7)),
            start: SimTime::from_hours(5) + SimDuration::from_secs(120),
            dns: Ok(SimDuration::from_millis(40)),
            outcome,
            download_time: Some(SimDuration::from_millis(900)),
            bytes_received: 24_000,
            connections_attempted: 1,
            retransmissions: Some(0),
            dig: DigOutcome::Resolved,
            proxy: None,
        }
    }

    #[test]
    fn outcome_predicates() {
        let ok = record(TransactionOutcome::Success);
        assert!(!ok.failed());
        assert_eq!(ok.failure(), None);

        let fail = record(TransactionOutcome::Failure(FailureClass::Dns(
            DnsFailureKind::LdnsTimeout,
        )));
        assert!(fail.failed());
        assert_eq!(
            fail.failure(),
            Some(FailureClass::Dns(DnsFailureKind::LdnsTimeout))
        );
    }

    #[test]
    fn hour_binning_uses_start() {
        let r = record(TransactionOutcome::Success);
        assert_eq!(r.hour(), 5);
    }

    #[test]
    fn connection_record_accessors() {
        let c = ConnectionRecord {
            client: ClientId(0),
            site: SiteId(0),
            replica: Ipv4Addr::new(198, 51, 100, 1),
            start: SimTime::from_hours(10),
            outcome: Err(TcpFailureKind::NoConnection),
            syn_retransmissions: 3,
            retransmissions: None,
        };
        assert!(c.failed());
        assert_eq!(c.failure(), Some(TcpFailureKind::NoConnection));
        assert_eq!(c.hour(), 10);
    }
}
