//! The iterative `dig` walker (measurement procedure step 3).
//!
//! After every wget access, the paper's clients run an iterative dig that
//! traverses the hierarchy from the root down, *bypassing the LDNS's
//! recursion*. Comparing dig's outcome with wget's DNS outcome validates the
//! failure classification (Section 4.2: the two agree in over 94% of failed
//! cases; disagreement indicates a transient or an LDNS-only problem).

use crate::faults::DnsFaults;
use crate::resolver::ResolverConfig;
use crate::server::{authoritative_answer, AnswerKind};
use crate::zones::ZoneTree;
use dnswire::{DomainName, Message, RecordType};
use model::{DnsErrorCode, DnsFailureKind, SimDuration, SimTime};
use netsim::SimRng;
use std::net::Ipv4Addr;

/// Outcome of an iterative dig.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DigResult {
    /// The walk reached the authoritative servers and got addresses.
    Resolved(Vec<Ipv4Addr>),
    /// The walk failed with the given observable class.
    Failed(DnsFailureKind),
}

impl DigResult {
    pub fn is_resolved(&self) -> bool {
        matches!(self, DigResult::Resolved(_))
    }
}

/// Run an iterative dig for `qname` from the client at instant `t`.
///
/// The client's access link gates everything (a down link means even the
/// root servers are unreachable, reported as an LDNS-class timeout since
/// dig's first hop — the LDNS — also fails); LDNS-only outages do *not*
/// affect the walk, which is exactly the discrepancy the paper uses dig to
/// expose.
pub fn dig_iterative<F: DnsFaults + ?Sized>(
    tree: &ZoneTree,
    qname: &DomainName,
    faults: &F,
    t: SimTime,
    rng: &mut SimRng,
    config: &ResolverConfig,
) -> (DigResult, SimDuration) {
    let mut elapsed = SimDuration::ZERO;
    if !faults.client_link_up(t) {
        elapsed += config.stub_timeout * u64::from(config.stub_attempts);
        return (DigResult::Failed(DnsFailureKind::LdnsTimeout), elapsed);
    }

    let chain = tree.delegation_chain(qname);
    let Some(last) = chain.last() else {
        return (
            DigResult::Failed(DnsFailureKind::ErrorResponse(DnsErrorCode::ServFail)),
            elapsed,
        );
    };
    let auth_apex = last.apex.clone();

    for zone in &chain {
        let is_auth = zone.apex == auth_apex;
        if is_auth {
            if let Some(code) = faults.zone_error(&zone.apex, t) {
                elapsed += config.latency.sample(config.latency.hop_rtt, rng);
                return (DigResult::Failed(DnsFailureKind::ErrorResponse(code)), elapsed);
            }
        }
        let up = faults.auth_up(&zone.apex, t);
        let mut reached = false;
        for _ in 0..config.auth_attempts {
            if up && !rng.chance(config.query_loss_prob) {
                elapsed += config.latency.sample(config.latency.hop_rtt, rng);
                reached = true;
                break;
            }
            elapsed += config.auth_timeout;
        }
        if !reached {
            return (DigResult::Failed(DnsFailureKind::NonLdnsTimeout), elapsed);
        }
        if is_auth {
            let q = Message::iterative_query(rng.next_u64() as u16, qname.clone(), RecordType::A);
            // The authoritative zone ends the chain: no deeper delegation.
            let (resp, kind) = authoritative_answer(zone, None, &q);
            return match kind {
                AnswerKind::Authoritative => {
                    let addrs = resp.resolve_a_chain(qname);
                    if addrs.is_empty() {
                        (
                            DigResult::Failed(DnsFailureKind::ErrorResponse(DnsErrorCode::ServFail)),
                            elapsed,
                        )
                    } else {
                        (DigResult::Resolved(addrs), elapsed)
                    }
                }
                AnswerKind::NxDomain => (
                    DigResult::Failed(DnsFailureKind::ErrorResponse(DnsErrorCode::NxDomain)),
                    elapsed,
                ),
                AnswerKind::Referral => (
                    DigResult::Failed(DnsFailureKind::ErrorResponse(DnsErrorCode::ServFail)),
                    elapsed,
                ),
            };
        }
    }
    (
        DigResult::Failed(DnsFailureKind::ErrorResponse(DnsErrorCode::NxDomain)),
        elapsed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::NoFaults;

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

    fn dig_with<F: DnsFaults>(faults: &F, host: &str) -> DigResult {
        let t = tree();
        let cfg = ResolverConfig::default();
        let mut rng = SimRng::new(1);
        dig_iterative(&t, &name(host), faults, SimTime::from_hours(1), &mut rng, &cfg).0
    }

    #[test]
    fn healthy_dig_resolves() {
        assert_eq!(
            dig_with(&NoFaults, "www.example.com"),
            DigResult::Resolved(vec![Ipv4Addr::new(10, 0, 0, 9)])
        );
    }

    #[test]
    fn link_down_fails_dig_too() {
        // wget and dig agree — the paper's >94% agreement case.
        assert_eq!(
            dig_with(&LinkDown, "www.example.com"),
            DigResult::Failed(DnsFailureKind::LdnsTimeout)
        );
    }

    #[test]
    fn ldns_only_outage_lets_dig_succeed() {
        // wget fails (stub needs LDNS) but dig bypasses it — the
        // discrepancy signature.
        assert!(dig_with(&LdnsOnlyDown, "www.example.com").is_resolved());
    }

    #[test]
    fn auth_down_is_non_ldns_timeout() {
        assert_eq!(
            dig_with(&AuthDown, "www.example.com"),
            DigResult::Failed(DnsFailureKind::NonLdnsTimeout)
        );
    }

    #[test]
    fn unknown_name_is_nxdomain() {
        assert_eq!(
            dig_with(&NoFaults, "zz.example.com"),
            DigResult::Failed(DnsFailureKind::ErrorResponse(DnsErrorCode::NxDomain))
        );
    }

    #[test]
    fn timeout_durations_accumulate() {
        let t = tree();
        let cfg = ResolverConfig::default();
        let mut rng = SimRng::new(2);
        let (_, elapsed) = dig_iterative(
            &t,
            &name("www.example.com"),
            &LinkDown,
            SimTime::from_hours(1),
            &mut rng,
            &cfg,
        );
        assert_eq!(elapsed, SimDuration::from_secs(15));
    }
}
