//! Authoritative-server answers.
//!
//! Given a zone and an iterative A query, write the wire-correct response
//! an authoritative server would send straight into a message buffer: an
//! authoritative answer (the zone's [`Zone::answer_chain`]), a referral to
//! a delegated child zone, or NXDOMAIN.

use crate::zones::Zone;
use dnswire::{
    DomainName, Header, MessageWriter, RDataRef, Rcode, RecordClass, RecordType, Section,
    WireWriter,
};

/// Write the response `zone`'s server gives to the iterative A query for
/// `qname` with id `id` into `w`, straight from the zones' own names and
/// records: nothing is built or cloned on the way.
///
/// `next` is the zone after `zone` in the query name's
/// [`ZoneTree::delegation_chain`], if any: a child zone whose apex lies
/// strictly between this zone's apex and the qname, so the answer is a
/// referral to it, carrying its NS records and their glue. Otherwise the
/// zone answers with the records of the qname's [`Zone::answer_chain`],
/// or denies the name with NXDOMAIN.
///
/// [`ZoneTree::delegation_chain`]: crate::zones::ZoneTree::delegation_chain
pub fn write_authoritative_answer(
    zone: &Zone,
    next: Option<&Zone>,
    qname: &DomainName,
    id: u16,
    w: &mut WireWriter,
) {
    // Only the authority itself looks the name up.
    let denied = next.is_none() && zone.lookup(qname).is_none();
    let rcode = if denied {
        Rcode::NxDomain
    } else {
        Rcode::NoError
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
        for (owner, records) in zone.answer_chain(qname) {
            for r in records {
                let rtype = r.record_type().expect("zones hold typed records");
                m.record(Section::Answer, owner, rtype, class, zone.ttl, r.view());
            }
        }
    }
    m.finish().expect("an answer fits in a message");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zones::ZoneTree;
    use dnswire::{Message, MessageRef, Question, RData, ResourceRecord};
    use std::net::Ipv4Addr;

    /// The zone after `zone` on `qname`'s delegation chain, as the
    /// iterative walk passes it.
    fn next_zone<'z>(zone: &Zone, tree: &'z ZoneTree, qname: &'z DomainName) -> Option<&'z Zone> {
        tree.delegation_chain(qname)
            .find(|z| z.apex.label_count() > zone.apex.label_count())
    }

    /// The answer `zone`'s server writes to the iterative A query for
    /// `qname`.
    fn answer(zone: &Zone, tree: &ZoneTree, qname: &str) -> Vec<u8> {
        let qname = name(qname);
        let next = next_zone(zone, tree, &qname);
        let mut w = WireWriter::new();
        write_authoritative_answer(zone, next, &qname, 7, &mut w);
        w.into_bytes()
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
        let resp = Message::decode(&answer(root, &t, "www.example.com")).unwrap();
        assert_eq!(resp.header.rcode, Rcode::NoError);
        assert!(!resp.authority.is_empty());
        for ns in &resp.authority {
            let RData::Ns(host) = &ns.rdata else {
                panic!("{ns:?} is no NS record")
            };
            assert!(
                resp.additional
                    .iter()
                    .any(|glue| glue.name == *host && matches!(glue.rdata, RData::A(_))),
                "referral carries glue for {host}"
            );
        }
        assert!(resp.answers.is_empty());
    }

    #[test]
    fn tld_refers_to_auth() {
        let t = tree();
        let com = t.zone(&name("com")).unwrap();
        // The referred zone should be example.com's.
        let resp = Message::decode(&answer(com, &t, "www.example.com")).unwrap();
        assert!(resp.answers.is_empty());
        assert_eq!(resp.authority[0].name, name("example.com"));
    }

    #[test]
    fn auth_answers() {
        let t = tree();
        let auth = t.zone(&name("example.com")).unwrap();
        let bytes = answer(auth, &t, "www.example.com");
        let header = Message::decode(&bytes).unwrap().header;
        assert!(header.authoritative);
        assert_eq!(header.rcode, Rcode::NoError);
        assert_eq!(chain(&bytes, "www.example.com"), vec![Ipv4Addr::new(10, 0, 0, 1)]);
    }

    #[test]
    fn auth_denies_unknown_name() {
        let t = tree();
        let auth = t.zone(&name("example.com")).unwrap();
        let bytes = answer(auth, &t, "nosuch.example.com");
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
        let bytes = answer(auth, &t, "web.example.com");
        assert_eq!(chain(&bytes, "web.example.com"), vec![Ipv4Addr::new(10, 0, 0, 1)]);
    }

    /// Each answer written straight from the zones is, byte for byte, the
    /// owned answer written out by hand and encoded: a referral with glue,
    /// an authoritative A set, an in-zone CNAME chain, a CNAME out of zone
    /// and NXDOMAIN.
    #[test]
    fn written_answers_equal_encoded_owned_answers() {
        let mut t = tree();
        let (a1, a2) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        {
            let z = t.zone_mut(&name("example.com")).unwrap();
            z.add_a(name("www.example.com"), a2);
            z.add_cname(name("web.example.com"), name("www.example.com"));
            z.add_cname(name("out.example.com"), name("www.other.org"));
        }
        let rr = |owner: &str, rdata: RData| ResourceRecord::new(name(owner), 7_200, rdata);
        let www = || {
            [
                rr("www.example.com", RData::A(a1)),
                rr("www.example.com", RData::A(a2)),
            ]
        };
        let mut w = WireWriter::new();
        let ok = Rcode::NoError;
        for (i, (apex, qname, rcode, answers)) in [
            (".", "www.example.com", ok, vec![]),
            ("com", "www.example.com", ok, vec![]),
            ("example.com", "www.example.com", ok, www().to_vec()),
            (
                "example.com",
                "web.example.com",
                ok,
                [rr("web.example.com", RData::Cname(name("www.example.com")))]
                    .into_iter()
                    .chain(www())
                    .collect(),
            ),
            (
                "example.com",
                "out.example.com",
                ok,
                vec![rr("out.example.com", RData::Cname(name("www.other.org")))],
            ),
            ("example.com", "nosuch.example.com", Rcode::NxDomain, vec![]),
        ]
        .into_iter()
        .enumerate()
        {
            let zone = t.zone(&name(apex)).unwrap();
            let qname = name(qname);
            let id = 0x5a00 + i as u16;
            let next = next_zone(zone, &t, &qname);
            // A referral carries the child zone's NS records and their glue.
            let (authority, additional) = match next {
                Some(deeper) => deeper
                    .ns
                    .iter()
                    .map(|(host, addr)| {
                        let ttl = deeper.ttl;
                        (
                            ResourceRecord::new(deeper.apex.clone(), ttl, RData::Ns(host.clone())),
                            ResourceRecord::new(host.clone(), ttl, RData::A(*addr)),
                        )
                    })
                    .unzip(),
                None => (vec![], vec![]),
            };
            let owned = Message {
                header: Header {
                    id,
                    is_response: true,
                    authoritative: true,
                    rcode,
                    ..Header::default()
                },
                questions: vec![Question::new(qname.clone(), RecordType::A)],
                answers,
                authority,
                additional,
            };
            write_authoritative_answer(zone, next, &qname, id, &mut w);
            assert_eq!(w.as_bytes(), owned.encode().unwrap(), "{qname} at {apex}");
        }
    }

    #[test]
    fn responses_are_wire_valid() {
        let t = tree();
        for (zone_apex, qn, rcode) in [
            (DomainName::root(), "www.example.com", Rcode::NoError),
            (name("com"), "www.example.com", Rcode::NoError),
            (name("example.com"), "www.example.com", Rcode::NoError),
            (name("example.com"), "zz.example.com", Rcode::NxDomain),
        ] {
            let zone = t.zone(&zone_apex).unwrap();
            let bytes = answer(zone, &t, qn);
            let decoded = Message::decode(&bytes).unwrap();
            assert_eq!(decoded.header.rcode, rcode, "{qn} at {zone_apex}");
            assert_eq!(decoded.questions, [Question::new(name(qn), RecordType::A)]);
            assert_eq!(decoded.encode().unwrap(), bytes, "{qn} at {zone_apex}");
        }
    }
}
