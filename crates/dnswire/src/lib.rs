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
//! questions, and A / NS / CNAME records — with full name-compression
//! support on both encode and decode. Those are the only types the
//! simulated zones serve; any other type decodes as [`RecordType::Other`]
//! with [`RData::Opaque`] data and re-encodes to the same bytes.
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
//!
//! The codec has one writer and one validator, and both work on borrowed
//! data. [`MessageWriter`] writes a message into a [`WireWriter`] the caller
//! keeps across messages, from borrowed names and [`RDataRef`]s, so a server
//! answering from its own tables builds nothing. [`MessageRef::decode`]
//! checks a message in place, with every check and error of
//! [`Message::decode`], and reads it without copying: its
//! [`MessageRef::resolve_a_chain`] follows an answer's CNAME chain over the
//! bytes. The owned [`Message`] is the by-hand form for tests and tools,
//! written as a literal: [`Message::encode`] goes through the same writer,
//! and [`Message::decode`] is [`MessageRef::decode`] plus a copy into owned
//! records.
//!
//! ```
//! use dnswire::{DomainName, Header, Message, Question, RData, RecordType, ResourceRecord};
//! use std::net::Ipv4Addr;
//!
//! let name: DomainName = "www.example.com".parse().unwrap();
//! let response = Message {
//!     header: Header { id: 0x1234, is_response: true, recursion_desired: true, ..Header::default() },
//!     questions: vec![Question::new(name.clone(), RecordType::A)],
//!     answers: vec![ResourceRecord::new(name, 300, RData::A(Ipv4Addr::new(203, 0, 113, 7)))],
//!     ..Message::default()
//! };
//! let wire = response.encode().unwrap();
//! let decoded = Message::decode(&wire).unwrap();
//! assert_eq!(decoded.answers, response.answers);
//! ```
//!
//! The same answer written from borrowed parts and read in place, with no
//! allocation once the writer and the address buffer have grown:
//!
//! ```
//! use dnswire::{
//!     DomainName, Header, MessageRef, MessageWriter, RDataRef, RecordClass, RecordType,
//!     Section, WireWriter,
//! };
//! use std::net::Ipv4Addr;
//!
//! let name: DomainName = "www.example.com".parse().unwrap();
//! let addr = Ipv4Addr::new(203, 0, 113, 7);
//! let mut w = WireWriter::new(); // kept across messages
//! let header = Header { id: 0x1234, is_response: true, recursion_desired: true, ..Header::default() };
//! let mut m = MessageWriter::new(&mut w, header);
//! m.question(&name, RecordType::A, RecordClass::In);
//! m.record(Section::Answer, &name, RecordType::A, RecordClass::In, 300, RDataRef::A(addr));
//! m.finish().unwrap();
//!
//! let answer = MessageRef::decode(w.as_bytes()).unwrap();
//! let mut addrs = Vec::new();
//! answer.resolve_a_chain(&name, &mut addrs);
//! assert_eq!(addrs, [addr]);
//! ```

pub mod error;
pub mod header;
pub mod message;
pub mod name;
pub mod rr;
pub mod wire;

pub use error::WireError;
pub use header::{Header, Opcode, Rcode};
pub use message::{Message, MessageRef, MessageWriter, Question, Section};
pub use name::DomainName;
pub use rr::{RData, RDataRef, RecordClass, RecordType, ResourceRecord};
pub use wire::WireWriter;
