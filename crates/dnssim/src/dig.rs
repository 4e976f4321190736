//! The iterative `dig` walker (measurement procedure step 3).
//!
//! After every wget access, the paper's clients run an iterative dig that
//! traverses the hierarchy from the root down, *bypassing the LDNS's
//! recursion*. Comparing dig's outcome with wget's DNS outcome validates the
//! failure classification (Section 4.2: the two agree in over 94% of failed
//! cases; disagreement indicates a transient or an LDNS-only problem).

use crate::faults::DnsFaults;
use crate::resolver::StubResolver;
use dnswire::DomainName;
use model::{DigOutcome, DnsFailureKind, SimDuration, SimTime};
use netsim::SimRng;
use std::net::Ipv4Addr;

impl StubResolver<'_> {
    /// Run an iterative dig for `qname` from the client at instant `t`: the
    /// walk a lookup runs past the LDNS, in this resolver's message buffer
    /// and under its `wire_fidelity`. `out` is cleared and, when the walk
    /// resolves, left holding the answer's addresses in zone order.
    ///
    /// The client's access link gates everything (a down link means even the
    /// root servers are unreachable, reported as an LDNS-class timeout since
    /// dig's first hop — the LDNS — also fails); LDNS-only outages do *not*
    /// affect the walk, which is exactly the discrepancy the paper uses dig
    /// to expose.
    pub fn dig_iterative<F: DnsFaults + ?Sized>(
        &mut self,
        qname: &DomainName,
        faults: &F,
        t: SimTime,
        rng: &mut SimRng,
        out: &mut Vec<Ipv4Addr>,
    ) -> DigOutcome {
        out.clear();
        if !faults.client_link_up(t) {
            return DigOutcome::Failed(DnsFailureKind::LdnsTimeout);
        }
        // The record keeps dig's verdict, not how long the walk took.
        let mut elapsed = SimDuration::ZERO;
        match self.walk(qname, faults, t, rng, &mut elapsed, out) {
            Ok(_) => DigOutcome::Resolved,
            Err(kind) => DigOutcome::Failed(kind),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::NoFaults;
    use crate::resolver::ResolverConfig;
    use crate::zones::ZoneTree;
    use model::DnsErrorCode;

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn tree() -> ZoneTree {
        ZoneTree::build_for_hosts(&[(name("www.example.com"), vec![Ipv4Addr::new(10, 0, 0, 9)])])
    }

    struct LinkDown;
    impl DnsFaults for LinkDown {
        fn client_link_up(&self, _t: SimTime) -> bool {
            false
        }
    }

    struct LdnsOnlyDown;
    impl DnsFaults for LdnsOnlyDown {
        fn ldns_up(&self, _t: SimTime) -> bool {
            false
        }
    }

    struct AuthDown;
    impl DnsFaults for AuthDown {
        fn auth_up(&self, zone: &DomainName, _t: SimTime) -> bool {
            zone.to_string() != "example.com"
        }
    }

    /// One dig: its outcome and the addresses it left.
    fn dig_with<F: DnsFaults>(faults: &F, host: &str) -> (DigOutcome, Vec<Ipv4Addr>) {
        let t = tree();
        let mut resolver = StubResolver::new(&t, ResolverConfig::default());
        let mut rng = SimRng::new(1);
        let mut out = vec![Ipv4Addr::BROADCAST];
        let dig = resolver.dig_iterative(
            &name(host),
            faults,
            SimTime::from_hours(1),
            &mut rng,
            &mut out,
        );
        (dig, out)
    }

    #[test]
    fn healthy_dig_resolves() {
        assert_eq!(
            dig_with(&NoFaults, "www.example.com"),
            (DigOutcome::Resolved, vec![Ipv4Addr::new(10, 0, 0, 9)])
        );
    }

    #[test]
    fn link_down_fails_dig_too() {
        // wget and dig agree — the paper's >94% agreement case.
        assert_eq!(
            dig_with(&LinkDown, "www.example.com"),
            (DigOutcome::Failed(DnsFailureKind::LdnsTimeout), vec![])
        );
    }

    #[test]
    fn ldns_only_outage_lets_dig_succeed() {
        // wget fails (stub needs LDNS) but dig bypasses it — the
        // discrepancy signature.
        assert_eq!(
            dig_with(&LdnsOnlyDown, "www.example.com").0,
            DigOutcome::Resolved
        );
    }

    #[test]
    fn auth_down_is_non_ldns_timeout() {
        assert_eq!(
            dig_with(&AuthDown, "www.example.com").0,
            DigOutcome::Failed(DnsFailureKind::NonLdnsTimeout)
        );
    }

    #[test]
    fn unknown_name_is_nxdomain() {
        assert_eq!(
            dig_with(&NoFaults, "zz.example.com").0,
            DigOutcome::Failed(DnsFailureKind::ErrorResponse(DnsErrorCode::NxDomain))
        );
    }
}
