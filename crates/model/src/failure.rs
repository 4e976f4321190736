//! The failure taxonomy of Section 2.1.
//!
//! A web transaction proceeds DNS resolution → TCP connection → HTTP
//! transfer; the first step to fail determines the top-level class. DNS and
//! TCP failures carry the paper's sub-classes; HTTP failures carry the status
//! code (the paper does not sub-classify them because they are <2% of
//! failures).

use std::fmt;

/// DNS error response codes we model (RFC 1035 RCODEs relevant to the study).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DnsErrorCode {
    /// Name does not exist (RCODE 3).
    NxDomain,
    /// Server failure, e.g. broken authoritative servers (RCODE 2).
    ServFail,
    /// Query refused (RCODE 5).
    Refused,
}

impl DnsErrorCode {
    pub fn label(self) -> &'static str {
        match self {
            DnsErrorCode::NxDomain => "NXDOMAIN",
            DnsErrorCode::ServFail => "SERVFAIL",
            DnsErrorCode::Refused => "REFUSED",
        }
    }
}

impl fmt::Display for DnsErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Sub-classes of DNS failure (Section 2.1, category 1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DnsFailureKind {
    /// The local DNS server never answered: it is down, or client↔LDNS
    /// connectivity is broken. The paper finds this dominates (74–83% of DNS
    /// failures).
    LdnsTimeout,
    /// LDNS answered but the lookup still timed out — an unreachable
    /// authoritative server further down the hierarchy.
    NonLdnsTimeout,
    /// The resolution completed with an error response.
    ErrorResponse(DnsErrorCode),
}

impl DnsFailureKind {
    pub fn label(self) -> &'static str {
        match self {
            DnsFailureKind::LdnsTimeout => "LDNS timeout",
            DnsFailureKind::NonLdnsTimeout => "non-LDNS timeout",
            DnsFailureKind::ErrorResponse(_) => "error response",
        }
    }
}

impl fmt::Display for DnsFailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnsFailureKind::ErrorResponse(code) => write!(f, "error response ({code})"),
            other => f.write_str(other.label()),
        }
    }
}

/// Sub-classes of TCP connection failure (Section 2.1, category 2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum TcpFailureKind {
    /// The SYN handshake failed (connectivity problem or server down).
    NoConnection,
    /// Connection established, request sent, but no bytes of response.
    NoResponse,
    /// Part of the response arrived before the connection died or stalled
    /// past the 60-second idle limit.
    PartialResponse,
    /// No packet trace was available to disambiguate no-response from
    /// partial-response (the paper's BB clients recorded no traces; Figure 3
    /// shows this merged category).
    NoOrPartialResponse,
}

impl TcpFailureKind {
    pub fn label(self) -> &'static str {
        match self {
            TcpFailureKind::NoConnection => "no connection",
            TcpFailureKind::NoResponse => "no response",
            TcpFailureKind::PartialResponse => "partial response",
            TcpFailureKind::NoOrPartialResponse => "no/partial response",
        }
    }
}

impl fmt::Display for TcpFailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Top-level failure class of a web transaction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FailureClass {
    /// The website name could not be resolved.
    Dns(DnsFailureKind),
    /// Resolution succeeded but the TCP transfer failed.
    Tcp(TcpFailureKind),
    /// The TCP transfer succeeded but the server returned an HTTP error
    /// status (the carried value, e.g. 404 or 503).
    Http(u16),
}

impl FailureClass {
    pub fn is_dns(&self) -> bool {
        matches!(self, FailureClass::Dns(_))
    }
}

impl fmt::Display for FailureClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureClass::Dns(k) => write!(f, "DNS/{k}"),
            FailureClass::Tcp(k) => write!(f, "TCP/{k}"),
            FailureClass::Http(status) => write!(f, "HTTP/{status}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates() {
        let d = FailureClass::Dns(DnsFailureKind::ErrorResponse(DnsErrorCode::NxDomain));
        assert!(d.is_dns());

        let t = FailureClass::Tcp(TcpFailureKind::PartialResponse);
        assert!(!t.is_dns());
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            FailureClass::Dns(DnsFailureKind::LdnsTimeout).to_string(),
            "DNS/LDNS timeout"
        );
        assert_eq!(
            FailureClass::Dns(DnsFailureKind::ErrorResponse(DnsErrorCode::ServFail)).to_string(),
            "DNS/error response (SERVFAIL)"
        );
        assert_eq!(
            FailureClass::Tcp(TcpFailureKind::NoOrPartialResponse).to_string(),
            "TCP/no/partial response"
        );
        assert_eq!(FailureClass::Http(503).to_string(), "HTTP/503");
    }
}
