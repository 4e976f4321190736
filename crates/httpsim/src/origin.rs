//! Origin-server response semantics.
//!
//! Decides what a *reachable* origin says to a request: the index object, a
//! redirect hop, or an HTTP error. Redirect chains are how the measurement's
//! connection counts exceed its transaction counts (Table 3); HTTP errors
//! are the rare (<2% of failures) third failure class of Section 2.1.

use dnswire::DomainName;
use netsim::SimRng;

/// Static description of a website's HTTP behaviour.
#[derive(Clone, Debug)]
pub struct Origin {
    /// Canonical hostname serving the content.
    host: DomainName,
    /// Size of the top-level index object.
    pub index_bytes: u64,
    /// Hosts that 302 to the next hop (e.g. `example.com` →
    /// `www.example.com`): position i redirects to position i+1, the last
    /// to `host`.
    redirects: Vec<DomainName>,
    /// Probability a request draws a transient HTTP error (e.g. 503).
    pub http_error_rate: f64,
    /// The error status used when one fires.
    pub http_error_status: u16,
}

impl Origin {
    /// A plain site serving `index_bytes` from `host` with no redirects.
    pub fn simple(host: DomainName, index_bytes: u64) -> Origin {
        Origin {
            host,
            index_bytes,
            redirects: Vec::new(),
            http_error_rate: 0.0,
            http_error_status: 503,
        }
    }

    /// Put a redirect chain of `hosts`, in chain order, in front of the
    /// canonical host.
    pub fn with_redirects(mut self, hosts: Vec<DomainName>) -> Origin {
        self.redirects = hosts;
        self
    }

    /// Set the transient HTTP error rate.
    pub fn with_error_rate(mut self, rate: f64, status: u16) -> Origin {
        self.http_error_rate = rate;
        self.http_error_status = status;
        self
    }

    /// The canonical hostname serving the content.
    pub fn host(&self) -> &DomainName {
        &self.host
    }

    /// Every host this origin answers for, in chain order: the redirect
    /// hops, then the canonical host.
    pub fn hosts(&self) -> impl Iterator<Item = &DomainName> {
        self.redirects.iter().chain(std::iter::once(&self.host))
    }

    /// Answer a request for the index object addressed to `requested`.
    /// The answer borrows the origin's own names, so building it allocates
    /// nothing.
    pub fn respond(&self, requested: &DomainName, rng: &mut SimRng) -> OriginAnswer<'_> {
        static RESPONSES: telemetry::CounterVec<3> =
            telemetry::CounterVec::new("http.responses", ["ok", "redirect", "error"]);
        if rng.chance(self.http_error_rate) {
            RESPONSES.add(2, 1);
            return OriginAnswer {
                status: self.http_error_status,
                body_len: 0,
                next_host: None,
            };
        }
        // Redirect hop?
        if let Some(pos) = self.redirects.iter().position(|hop| hop == requested) {
            RESPONSES.add(1, 1);
            return OriginAnswer {
                status: 302,
                body_len: 0,
                next_host: Some(self.redirects.get(pos + 1).unwrap_or(&self.host)),
            };
        }
        // Canonical content.
        RESPONSES.add(0, 1);
        OriginAnswer {
            status: 200,
            body_len: self.index_bytes,
            next_host: None,
        }
    }
}

/// What the record keeper sees of an origin's response: its status, its
/// body length, and the host a redirect points to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OriginAnswer<'a> {
    pub status: u16,
    pub body_len: u64,
    /// Host to contact next when the response is a redirect.
    pub next_host: Option<&'a DomainName>,
}

impl OriginAnswer<'_> {
    /// The answer for a host no origin serves.
    pub const NOT_FOUND: OriginAnswer<'static> = OriginAnswer {
        status: 404,
        body_len: 0,
        next_host: None,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn simple_site_serves_index() {
        let o = Origin::simple(name("www.example.com"), 24_000);
        let mut rng = SimRng::new(1);
        let a = o.respond(&name("www.example.com"), &mut rng);
        assert_eq!(
            a,
            OriginAnswer {
                status: 200,
                body_len: 24_000,
                next_host: None
            }
        );
    }

    #[test]
    fn redirect_chain_walks_to_canonical() {
        let o = Origin::simple(name("www.example.com"), 10_000)
            .with_redirects(vec![name("example.com")]);
        let mut rng = SimRng::new(2);
        let a = o.respond(&name("example.com"), &mut rng);
        assert_eq!(a.status, 302);
        assert_eq!(a.body_len, 0);
        assert_eq!(a.next_host, Some(&name("www.example.com")));
    }

    #[test]
    fn multi_hop_redirects() {
        let o = Origin::simple(name("final.example.com"), 10_000)
            .with_redirects(vec![name("example.com"), name("www.example.com")]);
        let mut rng = SimRng::new(3);
        let hop1 = o.respond(&name("example.com"), &mut rng);
        assert_eq!(hop1.next_host, Some(&name("www.example.com")));
        let hop2 = o.respond(hop1.next_host.unwrap(), &mut rng);
        assert_eq!(hop2.next_host, Some(&name("final.example.com")));
        let hop3 = o.respond(hop2.next_host.unwrap(), &mut rng);
        assert_eq!((hop3.status, hop3.next_host), (200, None));
        assert_eq!(
            o.hosts().map(DomainName::to_string).collect::<Vec<_>>(),
            ["example.com", "www.example.com", "final.example.com"]
        );
    }

    #[test]
    fn http_error_rate_fires() {
        let o = Origin::simple(name("e.example.com"), 10).with_error_rate(1.0, 503);
        let mut rng = SimRng::new(5);
        let a = o.respond(&name("e.example.com"), &mut rng);
        assert_eq!((a.status, a.body_len, a.next_host), (503, 0, None));
    }

    #[test]
    fn error_rate_frequency() {
        let o = Origin::simple(name("e.example.com"), 10).with_error_rate(0.2, 500);
        let host = name("e.example.com");
        let mut rng = SimRng::new(6);
        let errors = (0..10_000)
            .filter(|_| o.respond(&host, &mut rng).status == 500)
            .count();
        let rate = errors as f64 / 10_000.0;
        assert!((rate - 0.2).abs() < 0.02, "rate {rate}");
    }
}
