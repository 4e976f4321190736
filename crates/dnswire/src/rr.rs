//! Resource records (RFC 1035 §3.2): typed A, NS and CNAME, opaque otherwise.

use crate::error::WireError;
use crate::name::{DomainName, NameRef};
use crate::wire::{skip_name, u16_at, WireReader, WireWriter};
use std::fmt;
use std::net::Ipv4Addr;

/// Record types we model.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RecordType {
    A,
    Ns,
    Cname,
    /// Unmodeled types survive decoding with opaque RDATA.
    Other(u16),
}

impl RecordType {
    pub fn to_u16(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Ns => 2,
            RecordType::Cname => 5,
            RecordType::Other(v) => v,
        }
    }

    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RecordType::A,
            2 => RecordType::Ns,
            5 => RecordType::Cname,
            other => RecordType::Other(other),
        }
    }
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RecordType::A => "A",
            RecordType::Ns => "NS",
            RecordType::Cname => "CNAME",
            RecordType::Other(v) => return write!(f, "TYPE{v}"),
        };
        f.write_str(s)
    }
}

/// Record classes. Only IN is used by the study; others survive decode.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum RecordClass {
    #[default]
    In,
    Other(u16),
}

impl RecordClass {
    pub fn to_u16(self) -> u16 {
        match self {
            RecordClass::In => 1,
            RecordClass::Other(v) => v,
        }
    }

    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RecordClass::In,
            other => RecordClass::Other(other),
        }
    }
}

/// Typed RDATA.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RData {
    A(Ipv4Addr),
    Ns(DomainName),
    Cname(DomainName),
    /// Opaque payload for unmodeled types.
    Opaque(Vec<u8>),
}

impl RData {
    /// The data borrowed, for [`MessageWriter::record`](crate::MessageWriter::record).
    pub fn view(&self) -> RDataRef<'_> {
        match self {
            RData::A(a) => RDataRef::A(*a),
            RData::Ns(n) | RData::Cname(n) => RDataRef::Name(n),
            RData::Opaque(bytes) => RDataRef::Bytes(bytes),
        }
    }

    /// The record type this RDATA belongs to (Opaque needs external typing).
    pub fn record_type(&self) -> Option<RecordType> {
        match self {
            RData::A(_) => Some(RecordType::A),
            RData::Ns(_) => Some(RecordType::Ns),
            RData::Cname(_) => Some(RecordType::Cname),
            RData::Opaque(_) => None,
        }
    }
}

/// RDATA borrowed for writing: an address, a name (NS or CNAME, the record
/// type says which) or raw bytes. Zone data is written through this without
/// building an [`RData`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RDataRef<'a> {
    A(Ipv4Addr),
    Name(&'a DomainName),
    Bytes(&'a [u8]),
}

impl WireWriter {
    /// Write one resource record: owner name, type, class, TTL, then the
    /// RDATA behind its length.
    pub(crate) fn put_record(
        &mut self,
        name: &DomainName,
        rtype: RecordType,
        class: RecordClass,
        ttl: u32,
        rdata: RDataRef<'_>,
    ) {
        self.put_name(name);
        self.put_u16(rtype.to_u16());
        self.put_u16(class.to_u16());
        self.put_u32(ttl);
        // Reserve RDLENGTH and patch after writing RDATA.
        let len_at = self.len();
        self.put_u16(0);
        let start = self.len();
        match rdata {
            RDataRef::A(a) => self.put_bytes(&a.octets()),
            RDataRef::Name(n) => self.put_name(n),
            RDataRef::Bytes(bytes) => self.put_bytes(bytes),
        }
        let rdlen = self.len() - start;
        self.patch_u16(len_at, rdlen as u16);
    }
}

/// A complete resource record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ResourceRecord {
    pub name: DomainName,
    pub rtype: RecordType,
    pub class: RecordClass,
    pub ttl: u32,
    pub rdata: RData,
}

impl ResourceRecord {
    /// Convenience constructor for IN-class records, deriving the type from
    /// the RDATA (panics on `Opaque`; use the struct literal for those).
    pub fn new(name: DomainName, ttl: u32, rdata: RData) -> Self {
        let rtype = rdata
            .record_type()
            .expect("use struct literal for opaque rdata");
        ResourceRecord {
            name,
            rtype,
            class: RecordClass::In,
            ttl,
            rdata,
        }
    }
}

/// Check the record at the cursor and move past it: the codec's one record
/// validator, behind [`MessageRef::decode`](crate::MessageRef::decode).
pub(crate) fn validate_record(r: &mut WireReader<'_>) -> Result<(), WireError> {
    r.read_name()?;
    let rtype = RecordType::from_u16(r.get_u16()?);
    r.get_u16()?; // class
    r.get_u32()?; // TTL
    let rdlen = r.get_u16()? as usize;
    if r.remaining() < rdlen {
        return Err(WireError::Truncated);
    }
    let start = r.pos();
    let end = start + rdlen;
    match rtype {
        RecordType::A => {
            r.get_slice(4)?;
        }
        RecordType::Ns | RecordType::Cname => {
            r.read_name()?;
        }
        RecordType::Other(_) => {
            r.get_slice(rdlen)?;
        }
    }
    // A name inside NS or CNAME RDATA can legitimately parse yet overrun
    // the frame, so compare against the recorded start rather than
    // subtracting from rdlen (which would underflow).
    if r.pos() != end {
        return Err(WireError::RdataLengthMismatch {
            declared: rdlen as u16,
            actual: r.pos() - start,
        });
    }
    Ok(())
}

/// A validated record read in place.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RecordRef<'a> {
    pub(crate) name: NameRef<'a>,
    pub(crate) rtype: RecordType,
    class: RecordClass,
    ttl: u32,
    /// The message, whose offsets an NS or CNAME name's pointers are.
    msg: &'a [u8],
    /// Where the RDATA starts and ends in the message.
    rdata: (usize, usize),
}

impl<'a> RecordRef<'a> {
    /// The record at `at` of `msg` and the offset just past it; the caller
    /// has validated it.
    pub(crate) fn at(msg: &'a [u8], at: usize) -> (RecordRef<'a>, usize) {
        let fixed = skip_name(msg, at);
        let rdata_at = fixed + 10;
        let end = rdata_at + usize::from(u16_at(msg, fixed + 8));
        let ttl = &msg[fixed + 4..fixed + 8];
        let record = RecordRef {
            name: NameRef::new(msg, at),
            rtype: RecordType::from_u16(u16_at(msg, fixed)),
            class: RecordClass::from_u16(u16_at(msg, fixed + 2)),
            ttl: u32::from_be_bytes([ttl[0], ttl[1], ttl[2], ttl[3]]),
            msg,
            rdata: (rdata_at, end),
        };
        (record, end)
    }

    /// The address of an A record.
    pub(crate) fn a(self) -> Option<Ipv4Addr> {
        match (self.rtype, &self.msg[self.rdata.0..self.rdata.1]) {
            (RecordType::A, &[a, b, c, d]) => Some(Ipv4Addr::new(a, b, c, d)),
            _ => None,
        }
    }

    /// The name an NS or CNAME record carries.
    pub(crate) fn target(self) -> NameRef<'a> {
        NameRef::new(self.msg, self.rdata.0)
    }

    pub(crate) fn to_record(self) -> ResourceRecord {
        let rdata = match self.rtype {
            RecordType::A => RData::A(self.a().expect("validated A data")),
            RecordType::Ns => RData::Ns(self.target().to_name()),
            RecordType::Cname => RData::Cname(self.target().to_name()),
            RecordType::Other(_) => RData::Opaque(self.msg[self.rdata.0..self.rdata.1].to_vec()),
        };
        ResourceRecord {
            name: self.name.to_name(),
            rtype: self.rtype,
            class: self.class,
            ttl: self.ttl,
            rdata,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn encode(rr: &ResourceRecord) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_record(&rr.name, rr.rtype, rr.class, rr.ttl, rr.rdata.view());
        w.into_bytes()
    }

    /// Check the record that starts `bytes` and build it; the reader ends
    /// just past it.
    fn decode(r: &mut WireReader<'_>, bytes: &[u8]) -> Result<ResourceRecord, WireError> {
        validate_record(r)?;
        Ok(RecordRef::at(bytes, 0).0.to_record())
    }

    fn roundtrip(rr: &ResourceRecord) -> ResourceRecord {
        let bytes = encode(rr);
        let mut r = WireReader::new(&bytes);
        let decoded = decode(&mut r, &bytes).unwrap();
        assert!(r.is_at_end(), "reader must consume exactly the record");
        decoded
    }

    #[test]
    fn a_record_roundtrip() {
        let rr = ResourceRecord::new(
            name("www.example.com"),
            300,
            RData::A(Ipv4Addr::new(203, 0, 113, 7)),
        );
        assert_eq!(roundtrip(&rr), rr);
    }

    #[test]
    fn ns_cname_roundtrip() {
        for rdata in [
            RData::Ns(name("ns1.example.net")),
            RData::Cname(name("alias.example.org")),
        ] {
            let rr = ResourceRecord::new(name("x.example.com"), 3600, rdata);
            assert_eq!(roundtrip(&rr), rr);
        }
    }

    #[test]
    fn opaque_unknown_type_roundtrip() {
        let rr = ResourceRecord {
            name: name("u.example.com"),
            rtype: RecordType::Other(99),
            class: RecordClass::In,
            ttl: 5,
            rdata: RData::Opaque(vec![1, 2, 3, 4, 5]),
        };
        assert_eq!(roundtrip(&rr), rr);

        // The types no zone serves (SOA, PTR, MX, TXT, AAAA) decode as
        // opaque data too, and re-encode to the bytes they came from.
        let host = name("host.example.com");
        let mut soa = host.as_wire().to_vec();
        soa.extend_from_slice(name("hostmaster.example.com").as_wire());
        for field in [2005010100u32, 7200, 900, 1209600, 300] {
            soa.extend_from_slice(&field.to_be_bytes());
        }
        let mut mx = 10u16.to_be_bytes().to_vec();
        mx.extend_from_slice(host.as_wire());
        let aaaa: std::net::Ipv6Addr = "2001:db8::1".parse().unwrap();
        for (rtype, rdata) in [
            (6, soa),
            (12, host.as_wire().to_vec()),
            (15, mx),
            (16, b"\x05hello\x05world".to_vec()),
            (28, aaaa.octets().to_vec()),
        ] {
            let mut w = WireWriter::new();
            w.put_name(&name("x.example.com"));
            w.put_u16(rtype);
            w.put_u16(RecordClass::In.to_u16());
            w.put_u32(300);
            w.put_u16(rdata.len() as u16);
            w.put_bytes(&rdata);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            let rr = decode(&mut r, &bytes).unwrap();
            assert!(r.is_at_end(), "type {rtype}");
            assert_eq!(rr.rtype, RecordType::Other(rtype));
            assert_eq!(rr.rdata, RData::Opaque(rdata));
            assert_eq!(encode(&rr), bytes, "type {rtype}");
        }
    }

    #[test]
    fn rdata_length_mismatch_detected() {
        // Hand-craft an A record whose RDLENGTH says 6 but RDATA is 4.
        let mut w = WireWriter::new();
        w.put_name(&name("a.b"));
        w.put_u16(RecordType::A.to_u16());
        w.put_u16(RecordClass::In.to_u16());
        w.put_u32(1);
        w.put_u16(6);
        w.put_bytes(&[1, 2, 3, 4, 0, 0]);
        let bytes = w.into_bytes();
        let err = decode(&mut WireReader::new(&bytes), &bytes).unwrap_err();
        assert!(matches!(err, WireError::RdataLengthMismatch { .. }));
    }

    #[test]
    fn truncated_rdata_detected() {
        let mut w = WireWriter::new();
        w.put_name(&name("a.b"));
        w.put_u16(RecordType::A.to_u16());
        w.put_u16(RecordClass::In.to_u16());
        w.put_u32(1);
        w.put_u16(4);
        w.put_bytes(&[1, 2]); // short
        let bytes = w.into_bytes();
        assert_eq!(
            decode(&mut WireReader::new(&bytes), &bytes).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn type_and_class_numeric_mapping() {
        for v in [1u16, 2, 5, 6, 12, 15, 16, 28, 99, 255] {
            assert_eq!(RecordType::from_u16(v).to_u16(), v);
        }
        for v in [1u16, 3, 4, 255] {
            assert_eq!(RecordClass::from_u16(v).to_u16(), v);
        }
        assert_eq!(RecordType::A.to_string(), "A");
        assert_eq!(RecordType::Other(99).to_string(), "TYPE99");
    }
}
