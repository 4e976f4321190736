//! An RFC 1035 DNS message wire codec.
//!
//! The simulated resolver stack (`dnssim`) serializes every query and
//! response through this codec, which keeps the simulation honest — the
//! messages that travel through the simulated network are real DNS wire
//! bytes, with header flags, compressed names and resource records, and the
//! decoder is hardened against the usual malformed-message hazards
//! (truncation, compression-pointer loops, label overruns).
//!
//! Scope: the subset of DNS needed for A-record web lookups and hierarchy
//! walking — headers with all RFC 1035 flags and RCODEs, QNAME/QTYPE/QCLASS
//! questions, and A / NS / CNAME / SOA / PTR / MX / TXT / AAAA records —
//! with full name-compression support on both encode and decode.
//!
//! A [`DomainName`] is one boxed buffer holding the name's uncompressed
//! wire form (length-prefixed lowercase labels, then the root octet), with
//! equality and hashing over those bytes. Its ancestors are borrowed
//! sub-slices ([`DomainName::suffixes`]), and a name borrows as `[u8]`, so
//! zone and cache maps keyed by names are probed without building names.
//! The encoder compresses against a list of the offsets where earlier names
//! start, comparing each suffix with the bytes already written (following
//! their pointers): a pointer goes to the first place a suffix was written,
//! and only offsets up to 0x3FFF are kept, as RFC 1035 pointers allow.
//! [`Message::encode_into`] reuses a caller's buffer across messages.
//!
//! ```
//! use dnswire::{Message, DomainName, RecordType, RData};
//! use std::net::Ipv4Addr;
//!
//! let name: DomainName = "www.example.com".parse().unwrap();
//! let query = Message::query(0x1234, name.clone(), RecordType::A);
//! let bytes = query.encode().unwrap();
//!
//! let mut response = Message::decode(&bytes).unwrap().response_from_query();
//! response.add_answer(name, 300, RData::A(Ipv4Addr::new(203, 0, 113, 7)));
//! let wire = response.encode().unwrap();
//! let decoded = Message::decode(&wire).unwrap();
//! assert_eq!(decoded.answers.len(), 1);
//! ```

pub mod error;
pub mod header;
pub mod message;
pub mod name;
pub mod rr;
pub mod wire;

pub use error::WireError;
pub use header::{Header, Opcode, Rcode};
pub use message::{DnsIssue, DnsSection, Message, Question};
pub use name::DomainName;
pub use rr::{RData, RecordClass, RecordType, ResourceRecord};
