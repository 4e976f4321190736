//! Authoritative-server answers.
//!
//! Given a zone and an iterative A query, write the wire-correct response
//! an authoritative server would send straight into a message buffer: an
//! authoritative answer (following in-zone CNAMEs), a referral to a
//! delegated child zone, or NXDOMAIN.

use crate::zones::Zone;
use dnswire::{
    DomainName, Header, MessageWriter, RData, RDataRef, Rcode, RecordClass, RecordType, Section,
    WireWriter,
};

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

/// Write the response `zone`'s server gives to the iterative A query for
/// `qname` with id `id` into `w`, straight from the zones' own names and
/// records: nothing is built or cloned on the way.
///
/// `next` is the zone after `zone` in the query name's
/// [`ZoneTree::delegation_chain`], if any: a child zone whose apex lies
/// strictly between this zone's apex and the qname, so the answer is a
/// referral to it, carrying its NS records and their glue. Otherwise the
/// zone answers with the qname's records, following CNAMEs within the zone
/// for at most eight names, or denies the name with NXDOMAIN.
///
/// [`ZoneTree::delegation_chain`]: crate::zones::ZoneTree::delegation_chain
pub fn write_authoritative_answer(
    zone: &Zone,
    next: Option<&Zone>,
    qname: &DomainName,
    id: u16,
    w: &mut WireWriter,
) -> AnswerKind {
    // Only the authority itself looks the name up.
    let records = if next.is_some() { None } else { zone.lookup(qname) };
    let (kind, rcode) = match (next, records) {
        (Some(_), _) => (AnswerKind::Referral, Rcode::NoError),
        (None, Some(_)) => (AnswerKind::Authoritative, Rcode::NoError),
        (None, None) => (AnswerKind::NxDomain, Rcode::NxDomain),
    };
    let header = Header {
        id,
        is_response: true,
        authoritative: true,
        rcode,
        ..Header::default()
    };
    let mut m = MessageWriter::new(w, header);
    m.question(qname, RecordType::A, RecordClass::In);
    let class = RecordClass::In;
    if let Some(deeper) = next {
        let (apex, ttl) = (&deeper.apex, deeper.ttl);
        for (ns, _) in &deeper.ns {
            m.record(
                Section::Authority,
                apex,
                RecordType::Ns,
                class,
                ttl,
                RDataRef::Name(ns),
            );
        }
        for (ns, addr) in &deeper.ns {
            m.record(
                Section::Additional,
                ns,
                RecordType::A,
                class,
                ttl,
                RDataRef::A(*addr),
            );
        }
    } else {
        // The in-zone CNAME chain.
        let (mut current, mut records) = (qname, records);
        for _ in 0..8 {
            let Some(found) = records else { break };
            let mut target: Option<&DomainName> = None;
            for r in found {
                let rtype = r.record_type().expect("zones hold typed records");
                m.record(Section::Answer, current, rtype, class, zone.ttl, r.view());
                if let RData::Cname(t) = r {
                    target = Some(t);
                }
            }
            match target {
                Some(t) if t.is_subdomain_of(&zone.apex) => current = t,
                _ => break,
            }
            records = zone.lookup(current);
        }
    }
    m.finish().expect("an answer fits in a message");
    kind
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zones::ZoneTree;
    use dnswire::{Message, MessageRef, Question};
    use std::net::Ipv4Addr;

    /// The response to `query` built as an owned [`Message`]: the reference
    /// the written answers are checked against, byte for byte.
    fn authoritative_answer(
        zone: &Zone,
        next: Option<&Zone>,
        query: &Message,
    ) -> (Message, AnswerKind) {
        let mut resp = query.response_from_query();
        resp.header.authoritative = true;
        let q = &query.questions[0];

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

    /// The zone after `zone` on `qname`'s delegation chain, as the
    /// iterative walk passes it.
    fn next_zone<'z>(zone: &Zone, tree: &'z ZoneTree, qname: &'z DomainName) -> Option<&'z Zone> {
        tree.delegation_chain(qname)
            .find(|z| z.apex.label_count() > zone.apex.label_count())
    }

    /// The answer `zone`'s server writes to the iterative A query for
    /// `qname`, and its kind.
    fn answer(zone: &Zone, tree: &ZoneTree, qname: &str) -> (Vec<u8>, AnswerKind) {
        let qname = name(qname);
        let next = next_zone(zone, tree, &qname);
        let mut w = WireWriter::new();
        let kind = write_authoritative_answer(zone, next, &qname, 7, &mut w);
        (w.into_bytes(), kind)
    }

    /// The A chain from `qname`, read in place.
    fn chain(bytes: &[u8], qname: &str) -> Vec<Ipv4Addr> {
        let mut out = Vec::new();
        MessageRef::decode(bytes).unwrap().resolve_a_chain(&name(qname), &mut out);
        out
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
        let (bytes, kind) = answer(root, &t, "www.example.com");
        assert_eq!(kind, AnswerKind::Referral);
        let resp = Message::decode(&bytes).unwrap();
        let refs = resp.referrals();
        assert!(!refs.is_empty());
        assert!(!refs[0].1.is_empty(), "referral carries glue");
        assert!(resp.answers.is_empty());
    }

    #[test]
    fn tld_refers_to_auth() {
        let t = tree();
        let com = t.zone(&name("com")).unwrap();
        let (bytes, kind) = answer(com, &t, "www.example.com");
        assert_eq!(kind, AnswerKind::Referral);
        // The referred zone should be example.com's.
        let resp = Message::decode(&bytes).unwrap();
        assert_eq!(resp.authority[0].name, name("example.com"));
    }

    #[test]
    fn auth_answers() {
        let t = tree();
        let auth = t.zone(&name("example.com")).unwrap();
        let (bytes, kind) = answer(auth, &t, "www.example.com");
        assert_eq!(kind, AnswerKind::Authoritative);
        assert!(Message::decode(&bytes).unwrap().header.authoritative);
        assert_eq!(chain(&bytes, "www.example.com"), vec![Ipv4Addr::new(10, 0, 0, 1)]);
    }

    #[test]
    fn auth_denies_unknown_name() {
        let t = tree();
        let auth = t.zone(&name("example.com")).unwrap();
        let (bytes, kind) = answer(auth, &t, "nosuch.example.com");
        assert_eq!(kind, AnswerKind::NxDomain);
        assert_eq!(Message::decode(&bytes).unwrap().header.rcode, Rcode::NxDomain);
    }

    #[test]
    fn in_zone_cname_chain_followed() {
        let mut t = tree();
        {
            let z = t.zone_mut(&name("example.com")).unwrap();
            z.add_cname(name("web.example.com"), name("www.example.com"));
        }
        let auth = t.zone(&name("example.com")).unwrap();
        let (bytes, kind) = answer(auth, &t, "web.example.com");
        assert_eq!(kind, AnswerKind::Authoritative);
        assert_eq!(chain(&bytes, "web.example.com"), vec![Ipv4Addr::new(10, 0, 0, 1)]);
    }

    /// Each answer written straight from the zones is, byte for byte, the
    /// owned answer encoded: a referral with glue, an authoritative A set,
    /// an in-zone CNAME chain, a CNAME out of zone and NXDOMAIN.
    #[test]
    fn written_answers_equal_encoded_owned_answers() {
        let mut t = tree();
        {
            let z = t.zone_mut(&name("example.com")).unwrap();
            z.add_a(name("www.example.com"), Ipv4Addr::new(10, 0, 0, 2));
            z.add_cname(name("web.example.com"), name("www.example.com"));
            z.add_cname(name("out.example.com"), name("www.other.org"));
        }
        let mut w = WireWriter::new();
        for (i, (apex, qname, kind)) in [
            (".", "www.example.com", AnswerKind::Referral),
            ("com", "www.example.com", AnswerKind::Referral),
            ("example.com", "www.example.com", AnswerKind::Authoritative),
            ("example.com", "web.example.com", AnswerKind::Authoritative),
            ("example.com", "out.example.com", AnswerKind::Authoritative),
            ("example.com", "nosuch.example.com", AnswerKind::NxDomain),
        ]
        .into_iter()
        .enumerate()
        {
            let zone = t.zone(&name(apex)).unwrap();
            let qname = name(qname);
            let id = 0x5a00 + i as u16;
            let query = Message::iterative_query(id, qname.clone(), RecordType::A);
            let next = next_zone(zone, &t, &qname);
            let (owned, owned_kind) = authoritative_answer(zone, next, &query);
            assert_eq!(owned_kind, kind, "{qname} at {apex}");
            assert_eq!(
                write_authoritative_answer(zone, next, &qname, id, &mut w),
                kind
            );
            assert_eq!(w.as_bytes(), owned.encode().unwrap(), "{qname} at {apex}");
        }
    }

    #[test]
    fn responses_are_wire_valid() {
        let t = tree();
        for (zone_apex, qn) in [
            (DomainName::root(), "www.example.com"),
            (name("com"), "www.example.com"),
            (name("example.com"), "www.example.com"),
            (name("example.com"), "zz.example.com"),
        ] {
            let zone = t.zone(&zone_apex).unwrap();
            let (bytes, kind) = answer(zone, &t, qn);
            let decoded = Message::decode(&bytes).unwrap();
            let denied = kind == AnswerKind::NxDomain;
            assert_eq!(decoded.header.rcode == Rcode::NxDomain, denied);
            assert_eq!(decoded.questions, [Question::new(name(qn), RecordType::A)]);
            assert_eq!(decoded.encode().unwrap(), bytes, "{qn} at {zone_apex}");
        }
    }
}
