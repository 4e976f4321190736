//! Authoritative-server answer construction.
//!
//! Given a zone and a decoded query, produce the wire-correct response an
//! authoritative server would send: an authoritative answer (following
//! in-zone CNAMEs), a referral to a delegated child zone, or NXDOMAIN.

use crate::zones::Zone;
use dnswire::{DomainName, Message, RData, Rcode};

/// How the server answered, for the resolver's walk logic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AnswerKind {
    /// Authoritative records in the answer section.
    Authoritative,
    /// NS records for a more-specific zone in the authority section.
    Referral,
    /// Authoritative denial.
    NxDomain,
}

/// Build the response `zone`'s server gives to `query` (first question).
///
/// `next` is the zone after `zone` in the query name's
/// [`ZoneTree::delegation_chain`], if any: a child zone whose apex lies
/// strictly between this zone's apex and the qname, so the answer is a
/// referral to it.
///
/// [`ZoneTree::delegation_chain`]: crate::zones::ZoneTree::delegation_chain
pub fn authoritative_answer(
    zone: &Zone,
    next: Option<&Zone>,
    query: &Message,
) -> (Message, AnswerKind) {
    let mut resp = query.response_from_query();
    resp.header.authoritative = true;
    let Some(q) = query.questions.first() else {
        return (resp.with_rcode(Rcode::FormErr), AnswerKind::NxDomain);
    };

    if let Some(deeper) = next {
        for (ns_name, ns_addr) in &deeper.ns {
            resp.add_authority(deeper.apex.clone(), deeper.ttl, RData::Ns(ns_name.clone()));
            resp.add_additional(ns_name.clone(), deeper.ttl, RData::A(*ns_addr));
        }
        return (resp, AnswerKind::Referral);
    }

    // We are the authority: answer, following in-zone CNAME chains.
    let mut current = &q.qname;
    let mut answered = false;
    for _ in 0..8 {
        match zone.lookup(current) {
            Some(records) => {
                answered = true;
                let mut next: Option<&DomainName> = None;
                for r in records {
                    resp.add_answer(current.clone(), zone.ttl, r.clone());
                    if let RData::Cname(target) = r {
                        next = Some(target);
                    }
                }
                match next {
                    Some(target) if target.is_subdomain_of(&zone.apex) => current = target,
                    _ => break,
                }
            }
            None => break,
        }
    }

    if answered {
        (resp, AnswerKind::Authoritative)
    } else {
        (resp.with_rcode(Rcode::NxDomain), AnswerKind::NxDomain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zones::ZoneTree;
    use dnswire::RecordType;
    use std::net::Ipv4Addr;

    /// [`authoritative_answer`] as the iterative walk calls it: `next` is
    /// the zone after `zone` on the query name's delegation chain.
    fn answer(zone: &Zone, tree: &ZoneTree, query: &Message) -> (Message, AnswerKind) {
        let next = query.questions.first().and_then(|q| {
            tree.delegation_chain(&q.qname)
                .into_iter()
                .find(|z| z.apex.label_count() > zone.apex.label_count())
        });
        authoritative_answer(zone, next, query)
    }

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn tree() -> ZoneTree {
        ZoneTree::build_for_hosts(&[
            (name("www.example.com"), vec![Ipv4Addr::new(10, 0, 0, 1)]),
            (name("www.other.org"), vec![Ipv4Addr::new(10, 9, 0, 1)]),
        ])
    }

    #[test]
    fn root_refers_to_tld() {
        let t = tree();
        let root = t.zone(&DomainName::root()).unwrap();
        let q = Message::iterative_query(1, name("www.example.com"), RecordType::A);
        let (resp, kind) = answer(root, &t, &q);
        assert_eq!(kind, AnswerKind::Referral);
        let refs = resp.referrals();
        assert!(!refs.is_empty());
        assert!(!refs[0].1.is_empty(), "referral carries glue");
        assert!(resp.answers.is_empty());
    }

    #[test]
    fn tld_refers_to_auth() {
        let t = tree();
        let com = t.zone(&name("com")).unwrap();
        let q = Message::iterative_query(2, name("www.example.com"), RecordType::A);
        let (resp, kind) = answer(com, &t, &q);
        assert_eq!(kind, AnswerKind::Referral);
        // The referred zone should be example.com's.
        assert_eq!(resp.authority[0].name, name("example.com"));
    }

    #[test]
    fn auth_answers() {
        let t = tree();
        let auth = t.zone(&name("example.com")).unwrap();
        let q = Message::iterative_query(3, name("www.example.com"), RecordType::A);
        let (resp, kind) = answer(auth, &t, &q);
        assert_eq!(kind, AnswerKind::Authoritative);
        assert!(resp.header.authoritative);
        assert_eq!(
            resp.resolve_a_chain(&name("www.example.com")),
            vec![Ipv4Addr::new(10, 0, 0, 1)]
        );
    }

    #[test]
    fn auth_denies_unknown_name() {
        let t = tree();
        let auth = t.zone(&name("example.com")).unwrap();
        let q = Message::iterative_query(4, name("nosuch.example.com"), RecordType::A);
        let (resp, kind) = answer(auth, &t, &q);
        assert_eq!(kind, AnswerKind::NxDomain);
        assert_eq!(resp.header.rcode, Rcode::NxDomain);
    }

    #[test]
    fn in_zone_cname_chain_followed() {
        let mut t = tree();
        {
            let z = t.zone_mut(&name("example.com")).unwrap();
            z.add_cname(name("web.example.com"), name("www.example.com"));
        }
        let auth = t.zone(&name("example.com")).unwrap();
        let q = Message::iterative_query(5, name("web.example.com"), RecordType::A);
        let (resp, kind) = answer(auth, &t, &q);
        assert_eq!(kind, AnswerKind::Authoritative);
        assert_eq!(
            resp.resolve_a_chain(&name("web.example.com")),
            vec![Ipv4Addr::new(10, 0, 0, 1)]
        );
    }

    #[test]
    fn empty_question_is_formerr() {
        let t = tree();
        let root = t.zone(&DomainName::root()).unwrap();
        let q = Message::default();
        let (resp, _) = answer(root, &t, &q);
        assert_eq!(resp.header.rcode, Rcode::FormErr);
    }

    #[test]
    fn responses_are_wire_valid() {
        let t = tree();
        for (zone_apex, qn) in [
            (DomainName::root(), name("www.example.com")),
            (name("com"), name("www.example.com")),
            (name("example.com"), name("www.example.com")),
            (name("example.com"), name("zz.example.com")),
        ] {
            let zone = t.zone(&zone_apex).unwrap();
            let q = Message::iterative_query(6, qn, RecordType::A);
            let (resp, _) = answer(zone, &t, &q);
            let bytes = resp.encode().unwrap();
            let decoded = Message::decode(&bytes).unwrap();
            assert_eq!(decoded.header.rcode, resp.header.rcode);
            assert_eq!(decoded.answers, resp.answers);
        }
    }
}
