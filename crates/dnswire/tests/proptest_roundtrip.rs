//! Property-based tests for the DNS wire codec: arbitrary valid messages
//! round-trip exactly, the decoder never panics on arbitrary bytes, and the
//! wire-form name's borrowed suffixes agree with its owned ancestors.

use dnswire::{DomainName, Message, RData, RecordType, ResourceRecord};
use proptest::prelude::*;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Strategy for a valid hostname label (1–20 chars from the DNS alphabet).
fn label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9_-]{1,20}").expect("valid regex")
}

/// Strategy for a valid domain name with 1–5 labels.
fn domain_name() -> impl Strategy<Value = DomainName> {
    proptest::collection::vec(label(), 1..=5)
        .prop_map(|labels| DomainName::from_labels(labels).expect("labels validated"))
}

/// Names over a two-letter, mixed-case alphabet with 0–4 labels, so that
/// equal names, shared suffixes and case-only differences are common.
fn small_name() -> impl Strategy<Value = DomainName> {
    let label = proptest::string::string_regex("[abAB]{1,2}").expect("valid regex");
    proptest::collection::vec(label, 0..5)
        .prop_map(|labels| DomainName::from_labels(labels).expect("labels validated"))
}

fn rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RData::A(Ipv4Addr::from(o))),
        domain_name().prop_map(RData::Ns),
        domain_name().prop_map(RData::Cname),
        domain_name().prop_map(RData::Ptr),
        (any::<u16>(), domain_name())
            .prop_map(|(preference, exchange)| RData::Mx { preference, exchange }),
        proptest::collection::vec(any::<u8>(), 0..300).prop_map(RData::Txt),
    ]
}

fn record() -> impl Strategy<Value = ResourceRecord> {
    (domain_name(), any::<u32>(), rdata())
        .prop_map(|(name, ttl, rdata)| ResourceRecord::new(name, ttl, rdata))
}

proptest! {
    #[test]
    fn name_parse_display_roundtrip(labels in proptest::collection::vec(label(), 0..5)) {
        let name = DomainName::from_labels(labels).unwrap();
        let reparsed: DomainName = name.to_string().parse().unwrap();
        prop_assert_eq!(name, reparsed);
    }

    #[test]
    fn suffixes_are_the_hierarchy_reversed(name in small_name()) {
        let suffixes: Vec<&[u8]> = name.suffixes().collect();
        let hierarchy = name.hierarchy();
        let reversed: Vec<&[u8]> = hierarchy.iter().rev().map(DomainName::as_wire).collect();
        prop_assert_eq!(suffixes, reversed);
    }

    #[test]
    fn borrowed_suffix_probes_match_the_parent_chain(
        keys in proptest::collection::vec(small_name(), 0..12),
        name in small_name(),
    ) {
        let map: HashMap<DomainName, usize> =
            keys.into_iter().enumerate().map(|(i, k)| (k, i)).collect();
        let borrowed: Vec<Option<&usize>> = name.suffixes().map(|s| map.get(s)).collect();
        let owned: Vec<Option<&usize>> =
            std::iter::successors(Some(name.clone()), DomainName::parent)
                .map(|n| map.get(&n))
                .collect();
        prop_assert_eq!(borrowed, owned);
    }

    #[test]
    fn name_equality_is_text_equality(a in small_name(), b in small_name()) {
        prop_assert_eq!(a == b, a.to_string() == b.to_string());
    }

    #[test]
    fn message_roundtrip(
        id in any::<u16>(),
        qname in domain_name(),
        answers in proptest::collection::vec(record(), 0..8),
        authority in proptest::collection::vec(record(), 0..4),
        additional in proptest::collection::vec(record(), 0..4),
    ) {
        let mut m = Message::query(id, qname, RecordType::A).response_from_query();
        m.answers = answers;
        m.authority = authority;
        m.additional = additional;
        let bytes = m.encode().unwrap();
        let decoded = Message::decode(&bytes).unwrap();
        prop_assert_eq!(decoded.header.id, id);
        prop_assert_eq!(decoded.questions, m.questions);
        prop_assert_eq!(decoded.answers, m.answers);
        prop_assert_eq!(decoded.authority, m.authority);
        prop_assert_eq!(decoded.additional, m.additional);
    }

    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        // Any result is fine; panicking or looping is not.
        let _ = Message::decode(&bytes);
    }

    #[test]
    fn decode_reencode_stability(
        qname in domain_name(),
        answers in proptest::collection::vec(record(), 0..6),
    ) {
        // decode(encode(m)) re-encodes to identical bytes (canonical form).
        let mut m = Message::query(1, qname, RecordType::A).response_from_query();
        m.answers = answers;
        let bytes = m.encode().unwrap();
        let decoded = Message::decode(&bytes).unwrap();
        let bytes2 = decoded.encode().unwrap();
        prop_assert_eq!(bytes, bytes2);
    }
}
