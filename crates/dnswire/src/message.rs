//! Complete DNS messages (RFC 1035 §4.1).

use crate::error::WireError;
use crate::header::{Header, Rcode};
use crate::name::DomainName;
use crate::rr::{RData, RecordClass, RecordType, ResourceRecord};
use crate::wire::{WireReader, WireWriter};
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

    fn encode(&self, w: &mut WireWriter) {
        w.put_name(&self.qname);
        w.put_u16(self.qtype.to_u16());
        w.put_u16(self.qclass.to_u16());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Question, WireError> {
        Ok(Question {
            qname: r.get_name()?,
            qtype: RecordType::from_u16(r.get_u16()?),
            qclass: RecordClass::from_u16(r.get_u16()?),
        })
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
    /// A standard recursive query for `(qname, qtype)`.
    pub fn query(id: u16, qname: DomainName, qtype: RecordType) -> Message {
        Message {
            header: Header {
                id,
                recursion_desired: true,
                qdcount: 1,
                ..Header::default()
            },
            questions: vec![Question::new(qname, qtype)],
            ..Message::default()
        }
    }

    /// An iterative (non-recursive) query, as `dig +norecurse` would send.
    pub fn iterative_query(id: u16, qname: DomainName, qtype: RecordType) -> Message {
        let mut m = Message::query(id, qname, qtype);
        m.header.recursion_desired = false;
        m
    }

    /// Start a response to this query: copies id, question and RD; sets QR.
    pub fn response_from_query(&self) -> Message {
        Message {
            header: Header {
                id: self.header.id,
                is_response: true,
                recursion_desired: self.header.recursion_desired,
                qdcount: self.questions.len() as u16,
                ..Header::default()
            },
            questions: self.questions.clone(),
            ..Message::default()
        }
    }

    /// Append an answer record (IN class).
    pub fn add_answer(&mut self, name: DomainName, ttl: u32, rdata: RData) {
        self.answers.push(ResourceRecord::new(name, ttl, rdata));
    }

    /// Append an authority (NS/SOA) record.
    pub fn add_authority(&mut self, name: DomainName, ttl: u32, rdata: RData) {
        self.authority.push(ResourceRecord::new(name, ttl, rdata));
    }

    /// Append an additional (glue) record.
    pub fn add_additional(&mut self, name: DomainName, ttl: u32, rdata: RData) {
        self.additional.push(ResourceRecord::new(name, ttl, rdata));
    }

    /// Set the response code.
    pub fn with_rcode(mut self, rcode: Rcode) -> Message {
        self.header.rcode = rcode;
        self
    }

    /// All A-record addresses in the answer section for `name` (following
    /// no CNAMEs; use [`Message::resolve_a_chain`] for that).
    pub fn a_records_for(&self, name: &DomainName) -> Vec<Ipv4Addr> {
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
    /// returning the terminal A addresses (in answer order).
    pub fn resolve_a_chain(&self, name: &DomainName) -> Vec<Ipv4Addr> {
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

    /// Referral data from the authority/additional sections: NS names with
    /// any glue A addresses.
    pub fn referrals(&self) -> Vec<(DomainName, Vec<Ipv4Addr>)> {
        self.authority
            .iter()
            .filter_map(|rr| match &rr.rdata {
                RData::Ns(ns) => Some(ns.clone()),
                _ => None,
            })
            .map(|ns| {
                let glue = self.a_records_for(&ns_glue_name(&ns));
                let glue = if glue.is_empty() {
                    self.additional
                        .iter()
                        .filter(|rr| rr.name == ns)
                        .filter_map(|rr| match rr.rdata {
                            RData::A(a) => Some(a),
                            _ => None,
                        })
                        .collect()
                } else {
                    glue
                };
                (ns, glue)
            })
            .collect()
    }

    /// Serialize to wire bytes.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// [`Message::encode`] into a caller-owned buffer, which is cleared
    /// first, so a hot loop can reuse one allocation for every message.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        let mut header = self.header;
        header.qdcount = self.questions.len() as u16;
        header.ancount = self.answers.len() as u16;
        header.nscount = self.authority.len() as u16;
        header.arcount = self.additional.len() as u16;

        let mut w = WireWriter::with_buffer(std::mem::take(out));
        header.encode(&mut w);
        for q in &self.questions {
            q.encode(&mut w);
        }
        for rr in self
            .answers
            .iter()
            .chain(&self.authority)
            .chain(&self.additional)
        {
            rr.encode(&mut w);
        }
        *out = w.into_bytes();
        if out.len() > MAX_MESSAGE_LEN {
            return Err(WireError::MessageTooLong(out.len()));
        }
        Ok(())
    }

    /// Parse from wire bytes.
    pub fn decode(bytes: &[u8]) -> Result<Message, WireError> {
        let mut r = WireReader::new(bytes);
        let header = Header::decode(&mut r)?;
        let mut questions = Vec::with_capacity(header.qdcount as usize);
        for _ in 0..header.qdcount {
            questions.push(Question::decode(&mut r)?);
        }
        let mut sections: [Vec<ResourceRecord>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (i, count) in [header.ancount, header.nscount, header.arcount]
            .iter()
            .enumerate()
        {
            for _ in 0..*count {
                if r.is_at_end() {
                    return Err(WireError::CountMismatch);
                }
                sections[i].push(ResourceRecord::decode(&mut r)?);
            }
        }
        let [answers, authority, additional] = sections;
        Ok(Message {
            header,
            questions,
            answers,
            authority,
            additional,
        })
    }

    /// Lossy parse of a possibly corrupt message: entries that fail to
    /// decode are skipped by their wire frame and reported, everything
    /// else is kept. Never fails and never panics; a clean input yields
    /// exactly the strict decode with no issues.
    pub fn decode_salvage(bytes: &[u8]) -> (Message, Vec<DnsIssue>) {
        let mut issues = Vec::new();
        let mut r = WireReader::new(bytes);
        let header = match Header::decode(&mut r) {
            Ok(h) => h,
            Err(error) => {
                // Without the 12 fixed header octets nothing is framed;
                // there is no record boundary to resynchronize on.
                issues.push(DnsIssue {
                    offset: 0,
                    section: DnsSection::Header,
                    error,
                });
                return (Message::default(), issues);
            }
        };
        let mut msg = Message {
            header,
            ..Message::default()
        };
        for _ in 0..header.qdcount {
            let start = r.pos();
            match Question::decode(&mut r) {
                Ok(q) => msg.questions.push(q),
                Err(error) => {
                    issues.push(DnsIssue {
                        offset: start,
                        section: DnsSection::Question,
                        error,
                    });
                    match skip_question_frame(bytes, start) {
                        Some(next) => r.seek(next),
                        None => return (msg, issues),
                    }
                }
            }
        }
        let mut sections: [Vec<ResourceRecord>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let counts = [
            (header.ancount, DnsSection::Answer),
            (header.nscount, DnsSection::Authority),
            (header.arcount, DnsSection::Additional),
        ];
        for (i, (count, section)) in counts.into_iter().enumerate() {
            for _ in 0..count {
                if r.is_at_end() {
                    issues.push(DnsIssue {
                        offset: r.pos(),
                        section,
                        error: WireError::CountMismatch,
                    });
                    break;
                }
                let start = r.pos();
                match ResourceRecord::decode(&mut r) {
                    Ok(rr) => sections[i].push(rr),
                    Err(error) => {
                        issues.push(DnsIssue {
                            offset: start,
                            section,
                            error,
                        });
                        match skip_record_frame(bytes, start) {
                            Some(next) => r.seek(next),
                            None => {
                                let [answers, authority, additional] = sections;
                                msg.answers = answers;
                                msg.authority = authority;
                                msg.additional = additional;
                                return (msg, issues);
                            }
                        }
                    }
                }
            }
        }
        let [answers, authority, additional] = sections;
        msg.answers = answers;
        msg.authority = authority;
        msg.additional = additional;
        (msg, issues)
    }
}

/// Where in the message a salvage issue was found.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DnsSection {
    Header,
    Question,
    Answer,
    Authority,
    Additional,
}

impl std::fmt::Display for DnsSection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DnsSection::Header => "header",
            DnsSection::Question => "question",
            DnsSection::Answer => "answer",
            DnsSection::Authority => "authority",
            DnsSection::Additional => "additional",
        })
    }
}

/// One quarantined entry found while salvage-decoding a message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DnsIssue {
    /// Byte offset of the entry that failed to decode.
    pub offset: usize,
    pub section: DnsSection,
    pub error: WireError,
}

impl std::fmt::Display for DnsIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at offset {}: {}", self.section, self.offset, self.error)
    }
}

/// Walk past a name's in-place wire representation without validating its
/// contents: labels until a root octet or the first compression pointer.
/// Tolerates label bytes a strict parse would reject — the point is to find
/// the frame boundary, not to vouch for what's inside it.
fn skip_name(bytes: &[u8], mut p: usize) -> Option<usize> {
    let mut walked = 0usize;
    // A sane name fits in 255 octets; anything longer is corruption, and
    // the bound keeps us from wandering across the whole message.
    while walked <= 255 {
        let len = *bytes.get(p)?;
        match len & 0xC0 {
            0x00 if len == 0 => return Some(p + 1),
            0x00 => {
                p += 1 + len as usize;
                walked += 1 + len as usize;
            }
            // A pointer ends the in-place representation.
            0xC0 => return (p + 2 <= bytes.len()).then_some(p + 2),
            _ => return None,
        }
    }
    None
}

/// Frame of a question entry: name, then QTYPE and QCLASS.
fn skip_question_frame(bytes: &[u8], p: usize) -> Option<usize> {
    let next = skip_name(bytes, p)? + 4;
    (next <= bytes.len()).then_some(next)
}

/// Frame of a resource record: name, fixed fields, then RDLENGTH of RDATA.
fn skip_record_frame(bytes: &[u8], p: usize) -> Option<usize> {
    // TYPE(2) CLASS(2) TTL(4), then RDLENGTH(2).
    let rdlen_at = skip_name(bytes, p)? + 8;
    if rdlen_at + 2 > bytes.len() {
        return None;
    }
    let rdlen = u16::from_be_bytes([bytes[rdlen_at], bytes[rdlen_at + 1]]) as usize;
    let next = rdlen_at + 2 + rdlen;
    (next <= bytes.len()).then_some(next)
}

/// Identity helper kept separate for clarity: glue records are published
/// under the NS host name itself.
fn ns_glue_name(ns: &DomainName) -> DomainName {
    ns.clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn query_roundtrip() {
        let q = Message::query(0x4242, name("www.example.com"), RecordType::A);
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
    fn iterative_query_clears_rd() {
        let q = Message::iterative_query(1, name("example.com"), RecordType::Ns);
        assert!(!q.header.recursion_desired);
    }

    #[test]
    fn response_roundtrip_with_all_sections() {
        let q = Message::query(7, name("www.example.com"), RecordType::A);
        let mut resp = q.response_from_query();
        resp.add_answer(
            name("www.example.com"),
            300,
            RData::Cname(name("web.example.com")),
        );
        resp.add_answer(
            name("web.example.com"),
            300,
            RData::A(Ipv4Addr::new(203, 0, 113, 9)),
        );
        resp.add_authority(name("example.com"), 3600, RData::Ns(name("ns1.example.com")));
        resp.add_additional(
            name("ns1.example.com"),
            3600,
            RData::A(Ipv4Addr::new(198, 51, 100, 53)),
        );
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
        let mut m = Message::default();
        m.add_answer(name("a.example"), 60, RData::Cname(name("b.example")));
        m.add_answer(name("b.example"), 60, RData::Cname(name("c.example")));
        m.add_answer(name("c.example"), 60, RData::A(Ipv4Addr::new(10, 0, 0, 1)));
        assert_eq!(
            m.resolve_a_chain(&name("a.example")),
            vec![Ipv4Addr::new(10, 0, 0, 1)]
        );
        assert!(m.resolve_a_chain(&name("zz.example")).is_empty());
    }

    #[test]
    fn cname_loop_terminates_empty() {
        let mut m = Message::default();
        m.add_answer(name("a.example"), 60, RData::Cname(name("b.example")));
        m.add_answer(name("b.example"), 60, RData::Cname(name("a.example")));
        assert!(m.resolve_a_chain(&name("a.example")).is_empty());
    }

    #[test]
    fn referrals_with_glue() {
        let mut m = Message::default().with_rcode(Rcode::NoError);
        m.add_authority(name("example.com"), 3600, RData::Ns(name("ns1.example.com")));
        m.add_authority(name("example.com"), 3600, RData::Ns(name("ns2.example.com")));
        m.add_additional(
            name("ns1.example.com"),
            3600,
            RData::A(Ipv4Addr::new(198, 51, 100, 1)),
        );
        let refs = m.referrals();
        assert_eq!(refs.len(), 2);
        assert_eq!(refs[0].0, name("ns1.example.com"));
        assert_eq!(refs[0].1, vec![Ipv4Addr::new(198, 51, 100, 1)]);
        assert_eq!(refs[1].0, name("ns2.example.com"));
        assert!(refs[1].1.is_empty(), "no glue for ns2");
    }

    #[test]
    fn nxdomain_response() {
        let q = Message::query(9, name("nosuch.example"), RecordType::A);
        let resp = q.response_from_query().with_rcode(Rcode::NxDomain);
        let bytes = resp.encode().unwrap();
        let decoded = Message::decode(&bytes).unwrap();
        assert_eq!(decoded.header.rcode, Rcode::NxDomain);
        assert!(decoded.header.rcode.is_error());
        assert!(decoded.answers.is_empty());
    }

    #[test]
    fn count_mismatch_rejected() {
        let q = Message::query(1, name("x.example"), RecordType::A);
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

    /// A response with a question and records in every section, without
    /// cross-record compression (so single-record damage stays localized).
    fn salvage_fixture() -> Message {
        let q = Message::query(0x31, name("www.target.example"), RecordType::A);
        let mut resp = q.response_from_query();
        for i in 0..4u8 {
            resp.add_answer(
                name(&format!("h{i}.site{i}.example")),
                300,
                RData::A(Ipv4Addr::new(10, 1, 0, i)),
            );
        }
        resp.add_authority(name("zone.example"), 3600, RData::Ns(name("ns.other.example")));
        resp.add_additional(
            name("ns.other.example"),
            3600,
            RData::A(Ipv4Addr::new(10, 2, 0, 1)),
        );
        resp
    }

    #[test]
    fn salvage_on_clean_message_matches_strict() {
        let bytes = salvage_fixture().encode().unwrap();
        let strict = Message::decode(&bytes).unwrap();
        let (salvaged, issues) = Message::decode_salvage(&bytes);
        assert!(issues.is_empty(), "clean input must not report issues");
        assert_eq!(salvaged, strict);
    }

    #[test]
    fn salvage_skips_a_corrupt_answer_and_keeps_the_rest() {
        let msg = salvage_fixture();
        let mut bytes = msg.encode().unwrap();
        // Find the second answer by its distinctive first label "h1" and
        // corrupt a content byte of its owner name. Label lengths stay
        // intact, so the record frame is still walkable.
        let at = bytes
            .windows(3)
            .position(|w| w == [2, b'h', b'1'])
            .expect("answer name on the wire");
        bytes[at + 1] = 0xFF;
        assert_eq!(
            Message::decode(&bytes).unwrap_err(),
            WireError::BadLabelByte(0xFF)
        );
        let (salvaged, issues) = Message::decode_salvage(&bytes);
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].section, DnsSection::Answer);
        assert_eq!(issues[0].offset, at);
        assert_eq!(salvaged.answers.len(), 3, "other answers survive");
        assert_eq!(salvaged.authority, msg.authority);
        assert_eq!(salvaged.additional, msg.additional);
    }

    #[test]
    fn salvage_of_truncated_message_keeps_the_prefix() {
        let msg = salvage_fixture();
        let bytes = msg.encode().unwrap();
        let cut = &bytes[..bytes.len() - 9];
        assert!(Message::decode(cut).is_err());
        let (salvaged, issues) = Message::decode_salvage(cut);
        assert_eq!(salvaged.questions, msg.questions);
        assert_eq!(salvaged.answers, msg.answers);
        assert_eq!(salvaged.authority, msg.authority);
        assert!(salvaged.additional.is_empty());
        assert!(!issues.is_empty());
    }

    #[test]
    fn salvage_reports_overcounted_sections() {
        let msg = salvage_fixture();
        let mut bytes = msg.encode().unwrap();
        bytes[7] += 3; // ancount claims three records that are not there
        assert_eq!(Message::decode(&bytes).unwrap_err(), WireError::CountMismatch);
        let (salvaged, issues) = Message::decode_salvage(&bytes);
        // The phantom answers swallow the authority/additional records, but
        // the real four answers survive and the shortfall is reported.
        assert_eq!(salvaged.answers.len(), msg.answers.len() + 2);
        assert!(issues
            .iter()
            .any(|i| i.error == WireError::CountMismatch && i.section == DnsSection::Answer));
    }

    #[test]
    fn salvage_of_header_garbage_yields_nothing_quietly() {
        let (salvaged, issues) = Message::decode_salvage(&[0xFF; 7]);
        assert_eq!(salvaged, Message::default());
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].section, DnsSection::Header);
    }

    #[test]
    fn overrunning_txt_rdata_errors_without_panicking() {
        // RDLENGTH 3, but the character-string inside claims 10 octets: the
        // chunk overruns the declared frame and must be a typed error (this
        // used to underflow a length subtraction).
        let mut w = WireWriter::new();
        crate::header::Header {
            ancount: 1,
            ..Default::default()
        }
        .encode(&mut w);
        w.put_name(&name("t.example"));
        w.put_u16(RecordType::Txt.to_u16());
        w.put_u16(1); // IN
        w.put_u32(60);
        w.put_u16(3); // RDLENGTH
        w.put_u8(10); // character-string length overruns the frame
        w.put_bytes(&[b'a'; 10]);
        let bytes = w.into_bytes();
        assert!(matches!(
            Message::decode(&bytes).unwrap_err(),
            WireError::RdataLengthMismatch { declared: 3, .. }
        ));
        let (salvaged, issues) = Message::decode_salvage(&bytes);
        assert!(salvaged.answers.is_empty());
        assert_eq!(issues.len(), 1);
    }

    #[test]
    fn compression_shrinks_message() {
        let mut m = Message::query(1, name("www.example.com"), RecordType::A);
        let mut resp = m.response_from_query();
        for i in 0..10u8 {
            resp.add_answer(
                name("www.example.com"),
                60,
                RData::A(Ipv4Addr::new(10, 0, 0, i)),
            );
        }
        m = resp;
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
    /// `dnssim::authoritative_answer` lays out every referral (here the root
    /// zone's own four servers): the NS targets share a suffix and every
    /// glue owner repeats an NS target, so most names are pointers.
    fn referral_fixture() -> Message {
        let q = Message::iterative_query(0x2a5c, name("www.example.com"), RecordType::A);
        let mut resp = q.response_from_query();
        resp.header.authoritative = true;
        for (i, c) in ["a", "b", "c", "d"].into_iter().enumerate() {
            let ns = name(&format!("{c}.root-servers.example"));
            resp.add_authority(DomainName::root(), 86_400, RData::Ns(ns.clone()));
            resp.add_additional(ns, 86_400, RData::A(Ipv4Addr::new(192, 0, 32, i as u8 + 1)));
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
        let q = Message::iterative_query(0x0b0e, name("web.example.com"), RecordType::A);
        let mut msg = q.response_from_query();
        msg.header.authoritative = true;
        msg.add_answer(name("web.example.com"), 7200, RData::Cname(name("www.example.com")));
        msg.add_answer(name("www.example.com"), 7200, RData::A(Ipv4Addr::new(10, 0, 0, 1)));
        assert_eq!(msg.encode().unwrap(), PINNED);
        assert_same_records(&Message::decode(&PINNED).unwrap(), &msg);
    }

    #[test]
    fn names_past_the_pointer_range_are_never_targets() {
        // A 16 400-byte TXT answer pushes the next owner name past offset
        // 0x3FFF: its `www` label is written again by the repeat, and only
        // `example` (at 12, in the question) is pointed to.
        let q = Message::query(7, name("example"), RecordType::Txt);
        let mut msg = q.response_from_query();
        msg.add_answer(name("big.example"), 60, RData::Txt(vec![b'x'; 16_400]));
        msg.add_answer(name("www.example"), 60, RData::A(Ipv4Addr::new(10, 0, 0, 2)));
        msg.add_answer(name("www.example"), 60, RData::A(Ipv4Addr::new(10, 0, 0, 3)));
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

    #[test]
    fn encode_into_reuses_the_buffer_and_matches_encode() {
        let referral = referral_fixture();
        let query = Message::query(3, name("www.example.com"), RecordType::A);
        let mut buf = vec![0xEE; 9]; // stale content must go
        for msg in [&referral, &query, &referral] {
            msg.encode_into(&mut buf).unwrap();
            assert_eq!(buf, msg.encode().unwrap());
        }
    }
}
