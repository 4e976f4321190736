//! Resource records (RFC 1035 §3.2): typed A, NS and CNAME, opaque otherwise.

use crate::error::WireError;
use crate::name::DomainName;
use crate::wire::{WireReader, WireWriter};
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

    pub fn encode(&self, w: &mut WireWriter) {
        self.name_section_prefix(w);
        // Reserve RDLENGTH and patch after writing RDATA.
        let len_at = w.len();
        w.put_u16(0);
        let start = w.len();
        match &self.rdata {
            RData::A(a) => w.put_bytes(&a.octets()),
            RData::Ns(n) | RData::Cname(n) => w.put_name(n),
            RData::Opaque(bytes) => w.put_bytes(bytes),
        }
        let rdlen = w.len() - start;
        w.patch_u16(len_at, rdlen as u16);
    }

    fn name_section_prefix(&self, w: &mut WireWriter) {
        w.put_name(&self.name);
        w.put_u16(self.rtype.to_u16());
        w.put_u16(self.class.to_u16());
        w.put_u32(self.ttl);
    }

    pub fn decode(r: &mut WireReader<'_>) -> Result<ResourceRecord, WireError> {
        let name = r.get_name()?;
        let rtype = RecordType::from_u16(r.get_u16()?);
        let class = RecordClass::from_u16(r.get_u16()?);
        let ttl = r.get_u32()?;
        let rdlen = r.get_u16()? as usize;
        if r.remaining() < rdlen {
            return Err(WireError::Truncated);
        }
        let start = r.pos();
        let end = start + rdlen;
        let rdata = match rtype {
            RecordType::A => {
                let b = r.get_slice(4)?;
                RData::A(Ipv4Addr::new(b[0], b[1], b[2], b[3]))
            }
            RecordType::Ns => RData::Ns(r.get_name()?),
            RecordType::Cname => RData::Cname(r.get_name()?),
            RecordType::Other(_) => RData::Opaque(r.get_slice(rdlen)?.to_vec()),
        };
        // A name inside NS or CNAME RDATA can legitimately parse yet overrun
        // the frame, so compare against the recorded start rather than
        // subtracting from rdlen (which would underflow).
        if r.pos() != end {
            return Err(WireError::RdataLengthMismatch {
                declared: rdlen as u16,
                actual: r.pos() - start,
            });
        }
        Ok(ResourceRecord {
            name,
            rtype,
            class,
            ttl,
            rdata,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn roundtrip(rr: &ResourceRecord) -> ResourceRecord {
        let mut w = WireWriter::new();
        rr.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let decoded = ResourceRecord::decode(&mut r).unwrap();
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
            let rr = ResourceRecord::decode(&mut r).unwrap();
            assert!(r.is_at_end(), "type {rtype}");
            assert_eq!(rr.rtype, RecordType::Other(rtype));
            assert_eq!(rr.rdata, RData::Opaque(rdata));
            let mut w = WireWriter::new();
            rr.encode(&mut w);
            assert_eq!(w.into_bytes(), bytes, "type {rtype}");
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
        let err = ResourceRecord::decode(&mut WireReader::new(&bytes)).unwrap_err();
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
            ResourceRecord::decode(&mut WireReader::new(&bytes)).unwrap_err(),
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
