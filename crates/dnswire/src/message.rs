//! Complete DNS messages (RFC 1035 §4.1).

use crate::error::WireError;
use crate::header::Header;
use crate::name::{DomainName, NameRef};
#[cfg(test)]
use crate::rr::RData;
use crate::rr::{validate_record, RDataRef, RecordClass, RecordRef, RecordType, ResourceRecord};
use crate::wire::{skip_name, u16_at, WireReader, WireWriter};
use std::net::Ipv4Addr;

/// Maximum DNS message size we will produce (TCP-framing limit).
pub const MAX_MESSAGE_LEN: usize = 65_535;

/// A question section entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Question {
    pub qname: DomainName,
    pub qtype: RecordType,
    pub qclass: RecordClass,
}

impl Question {
    pub fn new(qname: DomainName, qtype: RecordType) -> Self {
        Question {
            qname,
            qtype,
            qclass: RecordClass::In,
        }
    }
}

/// A complete DNS message.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Message {
    pub header: Header,
    pub questions: Vec<Question>,
    pub answers: Vec<ResourceRecord>,
    pub authority: Vec<ResourceRecord>,
    pub additional: Vec<ResourceRecord>,
}

impl Message {
    /// All A-record addresses in the answer section for `name` (following
    /// no CNAMEs).
    #[cfg(test)]
    fn a_records_for(&self, name: &DomainName) -> Vec<Ipv4Addr> {
        self.answers
            .iter()
            .filter(|rr| &rr.name == name)
            .filter_map(|rr| match rr.rdata {
                RData::A(a) => Some(a),
                _ => None,
            })
            .collect()
    }

    /// Resolve the answer section as a CNAME chain starting at `name`,
    /// returning the terminal A addresses (in answer order): the reference
    /// [`MessageRef::resolve_a_chain`] is tested against.
    #[cfg(test)]
    pub(crate) fn resolve_a_chain(&self, name: &DomainName) -> Vec<Ipv4Addr> {
        let mut current = name.clone();
        // Bounded walk: a chain can't be longer than the answer count.
        for _ in 0..=self.answers.len() {
            let addrs = self.a_records_for(&current);
            if !addrs.is_empty() {
                return addrs;
            }
            let next = self.answers.iter().find_map(|rr| {
                if rr.name == current {
                    match &rr.rdata {
                        RData::Cname(target) => Some(target.clone()),
                        _ => None,
                    }
                } else {
                    None
                }
            });
            match next {
                Some(n) => current = n,
                None => break,
            }
        }
        Vec::new()
    }

    /// Serialize to wire bytes.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut w = WireWriter::new();
        let mut m = MessageWriter::new(&mut w, self.header);
        for q in &self.questions {
            m.question(&q.qname, q.qtype, q.qclass);
        }
        for (section, records) in [
            (Section::Answer, &self.answers),
            (Section::Authority, &self.authority),
            (Section::Additional, &self.additional),
        ] {
            for rr in records {
                let (name, data) = (&rr.name, rr.rdata.view());
                m.record(section, name, rr.rtype, rr.class, rr.ttl, data);
            }
        }
        m.finish()?;
        Ok(w.into_bytes())
    }

    /// Parse from wire bytes: [`MessageRef::decode`]'s checks, then a copy
    /// into owned names and records.
    pub fn decode(bytes: &[u8]) -> Result<Message, WireError> {
        MessageRef::decode(bytes).map(|m| m.to_message())
    }
}

/// The record sections, in the order a message carries them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Section {
    Answer,
    Authority,
    Additional,
}

/// Writes one message straight into a [`WireWriter`] from borrowed names
/// and data, so a caller that answers from its own tables builds no
/// [`Message`]. Questions come first, then each section's records in
/// section order; the header's four counts are the ones written, patched
/// in by [`MessageWriter::finish`]. [`Message::encode`] writes through
/// this too, so both give the same bytes for the same message.
pub struct MessageWriter<'w> {
    w: &'w mut WireWriter,
    /// QDCOUNT, ANCOUNT, NSCOUNT and ARCOUNT so far.
    counts: [u16; 4],
}

impl<'w> MessageWriter<'w> {
    /// Start a message with `header`'s id, flags and rcode in `w`, which is
    /// cleared first (its allocations are kept).
    pub fn new(w: &'w mut WireWriter, header: Header) -> Self {
        w.clear();
        Header {
            qdcount: 0,
            ancount: 0,
            nscount: 0,
            arcount: 0,
            ..header
        }
        .encode(w);
        MessageWriter { w, counts: [0; 4] }
    }

    /// Append a question.
    pub fn question(&mut self, qname: &DomainName, qtype: RecordType, qclass: RecordClass) {
        debug_assert!(self.counts[1..] == [0; 3], "questions precede records");
        self.w.put_name(qname);
        self.w.put_u16(qtype.to_u16());
        self.w.put_u16(qclass.to_u16());
        self.counts[0] = self.counts[0].wrapping_add(1);
    }

    /// Append a record to `section`.
    pub fn record(
        &mut self,
        section: Section,
        name: &DomainName,
        rtype: RecordType,
        class: RecordClass,
        ttl: u32,
        rdata: RDataRef<'_>,
    ) {
        let count = 1 + section as usize;
        debug_assert!(
            self.counts[count + 1..].iter().all(|&c| c == 0),
            "sections in order"
        );
        self.w.put_record(name, rtype, class, ttl, rdata);
        self.counts[count] = self.counts[count].wrapping_add(1);
    }

    /// Patch the counts into the header; the message is `w`'s bytes.
    pub fn finish(self) -> Result<(), WireError> {
        for (i, &count) in self.counts.iter().enumerate() {
            self.w.patch_u16(4 + 2 * i, count);
        }
        if self.w.len() > MAX_MESSAGE_LEN {
            return Err(WireError::MessageTooLong(self.w.len()));
        }
        Ok(())
    }
}

/// A message checked in place, without copying anything out of it.
/// [`MessageRef::decode`] makes every check [`Message::decode`] makes, with
/// the same errors (it is the one validator behind both), and keeps the
/// header and where the records start; reads after that need no checks.
#[derive(Clone, Copy, Debug)]
pub struct MessageRef<'a> {
    bytes: &'a [u8],
    header: Header,
    /// Offset of the first record, just past the questions.
    records_at: usize,
}

impl<'a> MessageRef<'a> {
    /// Check `bytes` as one message.
    pub fn decode(bytes: &'a [u8]) -> Result<MessageRef<'a>, WireError> {
        let mut r = WireReader::new(bytes);
        let header = Header::decode(&mut r)?;
        for _ in 0..header.qdcount {
            r.read_name()?;
            r.get_u16()?; // QTYPE
            r.get_u16()?; // QCLASS
        }
        let records_at = r.pos();
        for _ in 0..Self::record_count(&header) {
            if r.is_at_end() {
                return Err(WireError::CountMismatch);
            }
            validate_record(&mut r)?;
        }
        Ok(MessageRef {
            bytes,
            header,
            records_at,
        })
    }

    fn record_count(header: &Header) -> u32 {
        u32::from(header.ancount) + u32::from(header.nscount) + u32::from(header.arcount)
    }

    /// Every record, in wire order.
    fn records(self) -> impl Iterator<Item = RecordRef<'a>> {
        let (bytes, mut at) = (self.bytes, self.records_at);
        (0..Self::record_count(&self.header)).map(move |_| {
            let (record, next) = RecordRef::at(bytes, at);
            at = next;
            record
        })
    }

    /// Append to `out` the terminal A addresses (in answer order) of the
    /// CNAME chain the answer section spells from `name`, or nothing, read
    /// in place. Owner names and targets compare ASCII case-folded, as
    /// decoded names would.
    pub fn resolve_a_chain(self, name: &DomainName, out: &mut Vec<Ipv4Addr>) {
        let answers = || self.records().take(usize::from(self.header.ancount));
        // `None` while the chain is still at `name`.
        let mut current: Option<NameRef<'a>> = None;
        let at_current = |owner: NameRef<'a>, current: Option<NameRef<'a>>| match current {
            None => owner.is(name),
            Some(c) => owner.is_ref(c),
        };
        // Bounded walk: a chain can't be longer than the answer count.
        for _ in 0..=self.header.ancount {
            let start = out.len();
            out.extend(
                answers()
                    .filter(|rr| at_current(rr.name, current))
                    .filter_map(|rr| rr.a()),
            );
            if out.len() > start {
                return;
            }
            let alias = answers().find(|rr| {
                rr.rtype == RecordType::Cname && at_current(rr.name, current)
            });
            match alias {
                Some(cname) => current = Some(cname.target()),
                None => return,
            }
        }
    }

    /// Copy the message out into owned names and records.
    fn to_message(self) -> Message {
        let bytes = self.bytes;
        let mut at = Header::WIRE_LEN;
        let questions = (0..self.header.qdcount)
            .map(|_| {
                let qname = NameRef::new(bytes, at).to_name();
                at = skip_name(bytes, at) + 4;
                Question {
                    qname,
                    qtype: RecordType::from_u16(u16_at(bytes, at - 4)),
                    qclass: RecordClass::from_u16(u16_at(bytes, at - 2)),
                }
            })
            .collect();
        let mut records = self.records().map(RecordRef::to_record);
        let mut section = |count: u16| records.by_ref().take(usize::from(count)).collect();
        Message {
            header: self.header,
            questions,
            answers: section(self.header.ancount),
            authority: section(self.header.nscount),
            additional: section(self.header.arcount),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::Rcode;

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn rr(owner: &str, ttl: u32, rdata: RData) -> ResourceRecord {
        ResourceRecord::new(name(owner), ttl, rdata)
    }

    /// A query for `(qname, qtype)` with id `id`; recursive when `rd`.
    fn query(id: u16, qname: &str, qtype: RecordType, rd: bool) -> Message {
        Message {
            header: Header {
                id,
                recursion_desired: rd,
                ..Header::default()
            },
            questions: vec![Question::new(name(qname), qtype)],
            ..Message::default()
        }
    }

    /// The response to `query` with no records yet: its id, question and
    /// RD flag, with QR set.
    fn response(query: Message) -> Message {
        Message {
            header: Header {
                is_response: true,
                ..query.header
            },
            ..query
        }
    }

    #[test]
    fn query_roundtrip() {
        let q = query(0x4242, "www.example.com", RecordType::A, true);
        let bytes = q.encode().unwrap();
        let decoded = Message::decode(&bytes).unwrap();
        assert_eq!(decoded.header.id, 0x4242);
        assert!(decoded.header.recursion_desired);
        assert!(!decoded.header.is_response);
        assert_eq!(decoded.questions.len(), 1);
        assert_eq!(decoded.questions[0].qname, name("www.example.com"));
        assert_eq!(decoded.questions[0].qtype, RecordType::A);
    }

    #[test]
    fn response_roundtrip_with_all_sections() {
        let resp = Message {
            answers: vec![
                rr(
                    "www.example.com",
                    300,
                    RData::Cname(name("web.example.com")),
                ),
                rr(
                    "web.example.com",
                    300,
                    RData::A(Ipv4Addr::new(203, 0, 113, 9)),
                ),
            ],
            authority: vec![rr("example.com", 3600, RData::Ns(name("ns1.example.com")))],
            additional: vec![rr(
                "ns1.example.com",
                3600,
                RData::A(Ipv4Addr::new(198, 51, 100, 53)),
            )],
            ..response(query(7, "www.example.com", RecordType::A, true))
        };
        let bytes = resp.encode().unwrap();
        let decoded = Message::decode(&bytes).unwrap();
        assert!(decoded.header.is_response);
        assert_eq!(decoded.header.ancount, 2);
        assert_eq!(decoded.header.nscount, 1);
        assert_eq!(decoded.header.arcount, 1);
        assert_eq!(decoded.answers, resp.answers);
        assert_eq!(decoded.authority, resp.authority);
        assert_eq!(decoded.additional, resp.additional);
    }

    #[test]
    fn cname_chain_resolution() {
        let m = Message {
            answers: vec![
                rr("a.example", 60, RData::Cname(name("b.example"))),
                rr("b.example", 60, RData::Cname(name("c.example"))),
                rr("c.example", 60, RData::A(Ipv4Addr::new(10, 0, 0, 1))),
            ],
            ..Message::default()
        };
        assert_eq!(
            m.resolve_a_chain(&name("a.example")),
            vec![Ipv4Addr::new(10, 0, 0, 1)]
        );
        assert!(m.resolve_a_chain(&name("zz.example")).is_empty());
    }

    #[test]
    fn cname_loop_terminates_empty() {
        let m = Message {
            answers: vec![
                rr("a.example", 60, RData::Cname(name("b.example"))),
                rr("b.example", 60, RData::Cname(name("a.example"))),
            ],
            ..Message::default()
        };
        assert!(m.resolve_a_chain(&name("a.example")).is_empty());
    }

    #[test]
    fn nxdomain_response() {
        let mut resp = response(query(9, "nosuch.example", RecordType::A, true));
        resp.header.rcode = Rcode::NxDomain;
        let bytes = resp.encode().unwrap();
        let decoded = Message::decode(&bytes).unwrap();
        assert_eq!(decoded.header.rcode, Rcode::NxDomain);
        assert!(decoded.header.rcode.is_error());
        assert!(decoded.answers.is_empty());
    }

    #[test]
    fn count_mismatch_rejected() {
        let q = query(1, "x.example", RecordType::A, true);
        let mut bytes = q.encode().unwrap();
        // Claim one answer that isn't present.
        bytes[7] = 1; // ancount low byte
        assert_eq!(
            Message::decode(&bytes).unwrap_err(),
            WireError::CountMismatch
        );
    }

    #[test]
    fn decode_garbage_fails_cleanly() {
        assert!(Message::decode(&[]).is_err());
        assert!(Message::decode(&[0xFF; 5]).is_err());
        // random-ish garbage must not panic
        let garbage: Vec<u8> = (0..64).map(|i| (i * 37 + 11) as u8).collect();
        let _ = Message::decode(&garbage);
    }

    #[test]
    fn compression_shrinks_message() {
        let m = Message {
            answers: (0..10u8)
                .map(|i| rr("www.example.com", 60, RData::A(Ipv4Addr::new(10, 0, 0, i))))
                .collect(),
            ..response(query(1, "www.example.com", RecordType::A, true))
        };
        let bytes = m.encode().unwrap();
        // Header 12 + question 21 + 10 answers of (2-byte pointer + 10 fixed
        // + 4 rdata) = 193; the uncompressed form would be 343.
        assert_eq!(bytes.len(), 12 + 21 + 10 * (2 + 10 + 4));
        let decoded = Message::decode(&bytes).unwrap();
        assert_eq!(decoded.answers.len(), 10);
        assert_eq!(decoded.answers[9].rdata, RData::A(Ipv4Addr::new(10, 0, 0, 9)));
    }

    fn assert_same_records(decoded: &Message, msg: &Message) {
        assert_eq!(decoded.questions, msg.questions);
        assert_eq!(decoded.answers, msg.answers);
        assert_eq!(decoded.authority, msg.authority);
        assert_eq!(decoded.additional, msg.additional);
    }

    /// A referral with four NS records and their glue, laid out the way
    /// `dnssim`'s authoritative servers lay out every referral (here the root
    /// zone's own four servers): the NS targets share a suffix and every
    /// glue owner repeats an NS target, so most names are pointers.
    fn referral_fixture() -> Message {
        let mut resp = response(query(0x2a5c, "www.example.com", RecordType::A, false));
        resp.header.authoritative = true;
        for (i, c) in ["a", "b", "c", "d"].into_iter().enumerate() {
            let ns = format!("{c}.root-servers.example");
            resp.authority.push(rr(".", 86_400, RData::Ns(name(&ns))));
            resp.additional.push(rr(
                &ns,
                86_400,
                RData::A(Ipv4Addr::new(192, 0, 32, i as u8 + 1)),
            ));
        }
        resp
    }

    #[test]
    fn referral_encodes_to_pinned_bytes() {
        #[rustfmt::skip]
        const PINNED: [u8; 177] = [
            0x2a, 0x5c, 0x84, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x04, 0x00, 0x04,
            0x03, 0x77, 0x77, 0x77, 0x07, 0x65, 0x78, 0x61, 0x6d, 0x70, 0x6c, 0x65,
            0x03, 0x63, 0x6f, 0x6d, 0x00, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x02,
            0x00, 0x01, 0x00, 0x01, 0x51, 0x80, 0x00, 0x18, 0x01, 0x61, 0x0c, 0x72,
            0x6f, 0x6f, 0x74, 0x2d, 0x73, 0x65, 0x72, 0x76, 0x65, 0x72, 0x73, 0x07,
            0x65, 0x78, 0x61, 0x6d, 0x70, 0x6c, 0x65, 0x00, 0x00, 0x00, 0x02, 0x00,
            0x01, 0x00, 0x01, 0x51, 0x80, 0x00, 0x04, 0x01, 0x62, 0xc0, 0x2e, 0x00,
            0x00, 0x02, 0x00, 0x01, 0x00, 0x01, 0x51, 0x80, 0x00, 0x04, 0x01, 0x63,
            0xc0, 0x2e, 0x00, 0x00, 0x02, 0x00, 0x01, 0x00, 0x01, 0x51, 0x80, 0x00,
            0x04, 0x01, 0x64, 0xc0, 0x2e, 0xc0, 0x2c, 0x00, 0x01, 0x00, 0x01, 0x00,
            0x01, 0x51, 0x80, 0x00, 0x04, 0xc0, 0x00, 0x20, 0x01, 0xc0, 0x4f, 0x00,
            0x01, 0x00, 0x01, 0x00, 0x01, 0x51, 0x80, 0x00, 0x04, 0xc0, 0x00, 0x20,
            0x02, 0xc0, 0x5e, 0x00, 0x01, 0x00, 0x01, 0x00, 0x01, 0x51, 0x80, 0x00,
            0x04, 0xc0, 0x00, 0x20, 0x03, 0xc0, 0x6d, 0x00, 0x01, 0x00, 0x01, 0x00,
            0x01, 0x51, 0x80, 0x00, 0x04, 0xc0, 0x00, 0x20, 0x04,
        ];
        let msg = referral_fixture();
        assert_eq!(msg.encode().unwrap(), PINNED);
        assert_same_records(&Message::decode(&PINNED).unwrap(), &msg);
    }

    #[test]
    fn in_zone_cname_answer_encodes_to_pinned_bytes() {
        #[rustfmt::skip]
        const PINNED: [u8; 67] = [
            0x0b, 0x0e, 0x84, 0x00, 0x00, 0x01, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00,
            0x03, 0x77, 0x65, 0x62, 0x07, 0x65, 0x78, 0x61, 0x6d, 0x70, 0x6c, 0x65,
            0x03, 0x63, 0x6f, 0x6d, 0x00, 0x00, 0x01, 0x00, 0x01, 0xc0, 0x0c, 0x00,
            0x05, 0x00, 0x01, 0x00, 0x00, 0x1c, 0x20, 0x00, 0x06, 0x03, 0x77, 0x77,
            0x77, 0xc0, 0x10, 0xc0, 0x2d, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x1c,
            0x20, 0x00, 0x04, 0x0a, 0x00, 0x00, 0x01,
        ];
        let mut msg = Message {
            answers: vec![
                rr(
                    "web.example.com",
                    7200,
                    RData::Cname(name("www.example.com")),
                ),
                rr(
                    "www.example.com",
                    7200,
                    RData::A(Ipv4Addr::new(10, 0, 0, 1)),
                ),
            ],
            ..response(query(0x0b0e, "web.example.com", RecordType::A, false))
        };
        msg.header.authoritative = true;
        assert_eq!(msg.encode().unwrap(), PINNED);
        assert_same_records(&Message::decode(&PINNED).unwrap(), &msg);
    }

    #[test]
    fn names_past_the_pointer_range_are_never_targets() {
        // A 16 465-byte opaque answer pushes the next owner name past offset
        // 0x3FFF: its `www` label is written again by the repeat, and only
        // `example` (at 12, in the question) is pointed to.
        let big = ResourceRecord {
            name: name("big.example"),
            rtype: RecordType::Other(16),
            class: RecordClass::In,
            ttl: 60,
            rdata: RData::Opaque(vec![b'x'; 16_465]),
        };
        let msg = Message {
            answers: vec![
                big,
                rr("www.example", 60, RData::A(Ipv4Addr::new(10, 0, 0, 2))),
                rr("www.example", 60, RData::A(Ipv4Addr::new(10, 0, 0, 3))),
            ],
            ..response(query(7, "example", RecordType::Other(16), true))
        };
        let bytes = msg.encode().unwrap();
        assert_eq!(bytes.len(), 16_546);
        #[rustfmt::skip]
        let tail = [
            3, b'w', b'w', b'w', 0xc0, 0x0c, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 10, 0, 0, 2,
            3, b'w', b'w', b'w', 0xc0, 0x0c, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 10, 0, 0, 3,
        ];
        assert_eq!(bytes[16_506..], tail);
        assert_same_records(&Message::decode(&bytes).unwrap(), &msg);
    }

    /// The A chain read in place equals the chain of the decoded message,
    /// also when the wire spells names in capitals (decoding lowercases
    /// them; the in-place walk folds case).
    #[test]
    fn in_place_chain_equals_the_decoded_chain() {
        let a = |i: u8| RData::A(Ipv4Addr::new(10, 0, 0, i));
        let cname = |s: &str| RData::Cname(name(s));
        let cases: Vec<Vec<(&str, RData)>> = vec![
            // a → b → c, the addresses behind other records
            vec![
                ("a.example", cname("b.example")),
                ("x.example", a(9)),
                ("c.example", a(1)),
                ("b.example", cname("c.example")),
                ("c.example", a(2)),
            ],
            // a loop, and a name with both an address and an alias
            vec![("a.example", cname("b.example")), ("b.example", cname("a.example"))],
            vec![("b.example", a(3)), ("b.example", cname("c.example")), ("c.example", a(4))],
            // a dangling alias, and no answers at all
            vec![("a.example", cname("gone.example"))],
            vec![],
        ];
        for answers in cases {
            let msg = Message {
                answers: answers
                    .iter()
                    .map(|(owner, rdata)| rr(owner, 60, rdata.clone()))
                    .collect(),
                // Records outside the answer section are no part of a chain.
                authority: vec![rr("a.example", 60, a(7))],
                additional: vec![rr("b.example", 60, a(8))],
                ..response(query(1, "a.example", RecordType::A, true))
            };
            let mut bytes = msg.encode().unwrap();
            for shout in [false, true] {
                if shout {
                    bytes[Header::WIRE_LEN..].make_ascii_uppercase();
                }
                let decoded = Message::decode(&bytes).unwrap();
                let view = MessageRef::decode(&bytes).unwrap();
                for start in ["a.example", "b.example", "c.example", "zz.example"] {
                    let mut out = vec![Ipv4Addr::BROADCAST]; // kept: the walk appends
                    view.resolve_a_chain(&name(start), &mut out);
                    assert_eq!(out[0], Ipv4Addr::BROADCAST);
                    assert_eq!(
                        out[1..],
                        decoded.resolve_a_chain(&name(start)),
                        "{answers:?} from {start}, capitals {shout}"
                    );
                }
            }
        }
    }

    /// A writer kept across messages, as the resolver keeps one, writes
    /// each message afresh: no stale byte or name offset of the message
    /// before it survives into the next.
    #[test]
    fn a_kept_writer_matches_encode() {
        let referral = referral_fixture();
        let query = query(3, "www.example.com", RecordType::A, true);
        let mut w = WireWriter::new();
        w.put_bytes(&[0xEE; 9]);
        for msg in [&referral, &query, &referral] {
            let mut m = MessageWriter::new(&mut w, msg.header);
            for q in &msg.questions {
                m.question(&q.qname, q.qtype, q.qclass);
            }
            for (section, records) in [
                (Section::Answer, &msg.answers),
                (Section::Authority, &msg.authority),
                (Section::Additional, &msg.additional),
            ] {
                for rr in records {
                    m.record(section, &rr.name, rr.rtype, rr.class, rr.ttl, rr.rdata.view());
                }
            }
            m.finish().unwrap();
            assert_eq!(w.as_bytes(), msg.encode().unwrap());
        }
    }
}
