//! Domain names.
//!
//! A [`DomainName`] holds its uncompressed wire form: every label as a
//! length octet and its bytes, then the root octet, so `www.example.com` is
//! `\x03www\x07example\x03com\x00` and the root name is the lone `\x00`
//! (printed as `.`). Labels are stored lowercased (DNS name comparison is
//! case-insensitive; we canonicalize at construction), so equality and
//! hashing are plain byte comparisons. A name borrows as `[u8]`: a
//! `HashMap<DomainName, _>` can be probed with any of
//! [`DomainName::suffixes`] without building the ancestor names.

use crate::error::WireError;
use std::borrow::Borrow;
use std::fmt;
use std::str::FromStr;

/// Maximum length of one label on the wire.
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum total length of an encoded name (labels + length octets + root).
pub const MAX_NAME_LEN: usize = 255;

/// A validated, canonicalized (lowercase) domain name.
///
/// `Eq` and `Hash` are those of the wire bytes, which is what lets the
/// name implement `Borrow<[u8]>`. There is no `Ord`: label order would
/// disagree with the byte order of `[u8]` that `Borrow` requires, and
/// nothing sorts names.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct DomainName {
    /// Length-prefixed lowercase labels, leftmost (host) first, then the
    /// root octet.
    wire: Box<[u8]>,
}

impl DomainName {
    /// The root name (zero labels).
    pub fn root() -> Self {
        DomainName { wire: Box::new([0]) }
    }

    /// Build from label byte strings; validates lengths and characters.
    pub fn from_labels<I, L>(labels: I) -> Result<Self, WireError>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        let mut name = NameBuilder::new();
        for label in labels {
            let label = label.as_ref();
            if label.is_empty() {
                return Err(WireError::EmptyLabel);
            }
            if label.len() > MAX_LABEL_LEN {
                return Err(WireError::LabelTooLong(label.len()));
            }
            if let Some(&b) = label.iter().find(|&&b| !is_hostname_byte(b)) {
                return Err(WireError::BadLabelByte(b));
            }
            name.push(label);
        }
        name.finish()
    }

    /// Number of labels (0 for the root).
    pub fn label_count(&self) -> usize {
        self.suffixes().count() - 1
    }

    pub fn is_root(&self) -> bool {
        self.wire.len() == 1
    }

    /// The labels, leftmost (host) first.
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> {
        self.suffixes()
            .filter(|s| s[0] != 0)
            .map(|s| &s[1..=usize::from(s[0])])
    }

    /// The uncompressed wire form: length-prefixed labels, then the root
    /// octet.
    pub fn as_wire(&self) -> &[u8] {
        &self.wire
    }

    /// The wire forms of this name and each of its ancestors, from the name
    /// itself down to the root octet: `www.example.com` yields
    /// `www.example.com`, `example.com`, `com` and `.` — the reverse of
    /// [`DomainName::hierarchy`], borrowed instead of allocated.
    pub fn suffixes(&self) -> impl Iterator<Item = &[u8]> {
        let wire: &[u8] = &self.wire;
        std::iter::successors(Some(wire), |s| {
            (s[0] != 0).then(|| &s[1 + usize::from(s[0])..])
        })
    }

    /// Encoded wire length (sum of labels + length octets + root octet).
    pub fn wire_len(&self) -> usize {
        self.wire.len()
    }

    /// The parent domain (this name with its leftmost label removed);
    /// `None` for the root.
    pub fn parent(&self) -> Option<DomainName> {
        self.suffixes().nth(1).map(DomainName::from_wire)
    }

    /// Is `self` equal to or a subdomain of `ancestor`?
    pub fn is_subdomain_of(&self, ancestor: &DomainName) -> bool {
        // Suffix lengths strictly decrease, so only the first one no longer
        // than `ancestor` can equal it.
        let ancestor = ancestor.as_wire();
        self.suffixes().find(|s| s.len() <= ancestor.len()) == Some(ancestor)
    }

    /// All ancestor zones from the root down to the name itself:
    /// `www.example.com` → `[".", "com", "example.com", "www.example.com"]`.
    pub fn hierarchy(&self) -> Vec<DomainName> {
        let mut out: Vec<DomainName> = self.suffixes().map(DomainName::from_wire).collect();
        out.reverse();
        out
    }

    /// Prepend a label: `child("www")` on `example.com` → `www.example.com`.
    pub fn child(&self, label: &str) -> Result<DomainName, WireError> {
        DomainName::from_labels(std::iter::once(label.as_bytes()).chain(self.labels()))
    }

    /// A name from a suffix of another name's wire form (already valid).
    fn from_wire(wire: &[u8]) -> DomainName {
        DomainName { wire: wire.into() }
    }
}

impl Borrow<[u8]> for DomainName {
    fn borrow(&self) -> &[u8] {
        &self.wire
    }
}

/// A name's wire form under construction, in a stack buffer so that
/// building a name costs one allocation: the final box.
pub(crate) struct NameBuilder {
    buf: [u8; MAX_NAME_LEN],
    /// Encoded length so far, root octet included; it keeps counting past
    /// the buffer so an overlong name reports its full length.
    wire_len: usize,
}

impl NameBuilder {
    pub(crate) fn new() -> Self {
        NameBuilder {
            buf: [0; MAX_NAME_LEN],
            wire_len: 1,
        }
    }

    /// Encoded length so far, root octet included.
    pub(crate) fn wire_len(&self) -> usize {
        self.wire_len
    }

    /// Append one label (1–63 bytes), lowercased.
    pub(crate) fn push(&mut self, label: &[u8]) {
        let at = self.wire_len - 1;
        self.wire_len += 1 + label.len();
        if self.wire_len <= MAX_NAME_LEN {
            self.buf[at] = label.len() as u8;
            for (dst, src) in self.buf[at + 1..].iter_mut().zip(label) {
                *dst = src.to_ascii_lowercase();
            }
        }
    }

    /// The finished name, or `NameTooLong` past 255 octets.
    pub(crate) fn finish(mut self) -> Result<DomainName, WireError> {
        if self.wire_len > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(self.wire_len));
        }
        self.buf[self.wire_len - 1] = 0;
        Ok(DomainName::from_wire(&self.buf[..self.wire_len]))
    }
}

/// Permitted bytes: letters, digits, hyphen and underscore (the latter is
/// common in practice, e.g. `_dmarc`).
pub(crate) fn is_hostname_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'-' || b == b'_'
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        for (i, label) in self.labels().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            // Labels are validated ASCII.
            f.write_str(std::str::from_utf8(label).expect("validated ascii"))?;
        }
        Ok(())
    }
}

impl fmt::Debug for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DomainName({self})")
    }
}

impl FromStr for DomainName {
    type Err = WireError;

    /// Parse dotted notation; a single trailing dot (FQDN form) is allowed,
    /// `"."` and `""` denote the root.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(DomainName::root());
        }
        DomainName::from_labels(s.split('.'))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let n: DomainName = "WWW.Example.COM".parse().unwrap();
        assert_eq!(n.to_string(), "www.example.com");
        assert_eq!(n.label_count(), 3);
    }

    #[test]
    fn root_forms() {
        assert!(".".parse::<DomainName>().unwrap().is_root());
        assert!("".parse::<DomainName>().unwrap().is_root());
        assert_eq!(DomainName::root().to_string(), ".");
        assert_eq!(DomainName::root().wire_len(), 1);
    }

    #[test]
    fn fqdn_trailing_dot() {
        let a: DomainName = "example.com.".parse().unwrap();
        let b: DomainName = "example.com".parse().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_labels() {
        assert_eq!(
            "a..b".parse::<DomainName>().unwrap_err(),
            WireError::EmptyLabel
        );
        assert!(matches!(
            "exa mple.com".parse::<DomainName>().unwrap_err(),
            WireError::BadLabelByte(b' ')
        ));
        let long = "x".repeat(64);
        assert_eq!(
            long.parse::<DomainName>().unwrap_err(),
            WireError::LabelTooLong(64)
        );
    }

    #[test]
    fn rejects_overlong_name() {
        // 5 labels of 63 bytes: wire length 5*64 + 1 = 321 > 255.
        let name = (0..5).map(|_| "y".repeat(63)).collect::<Vec<_>>().join(".");
        assert!(matches!(
            name.parse::<DomainName>().unwrap_err(),
            WireError::NameTooLong(_)
        ));
    }

    #[test]
    fn wire_len_counts_octets() {
        let n: DomainName = "www.example.com".parse().unwrap();
        // 3+1 + 7+1 + 3+1 + 1 = 17
        assert_eq!(n.wire_len(), 17);
    }

    #[test]
    fn parent_chain() {
        let n: DomainName = "a.b.c".parse().unwrap();
        let p = n.parent().unwrap();
        assert_eq!(p.to_string(), "b.c");
        assert_eq!(p.parent().unwrap().to_string(), "c");
        assert!(p.parent().unwrap().parent().unwrap().is_root());
        assert_eq!(DomainName::root().parent(), None);
    }

    #[test]
    fn subdomain_relation() {
        let com: DomainName = "com".parse().unwrap();
        let ex: DomainName = "example.com".parse().unwrap();
        let www: DomainName = "www.example.com".parse().unwrap();
        let org: DomainName = "example.org".parse().unwrap();
        assert!(www.is_subdomain_of(&ex));
        assert!(www.is_subdomain_of(&com));
        assert!(www.is_subdomain_of(&DomainName::root()));
        assert!(ex.is_subdomain_of(&ex));
        assert!(!ex.is_subdomain_of(&www));
        assert!(!org.is_subdomain_of(&com) || org.to_string().ends_with("com"));
        assert!(!www.is_subdomain_of(&org));
    }

    #[test]
    fn hierarchy_walk() {
        let n: DomainName = "www.example.com".parse().unwrap();
        let h = n.hierarchy();
        let strs: Vec<String> = h.iter().map(|d| d.to_string()).collect();
        assert_eq!(strs, vec![".", "com", "example.com", "www.example.com"]);
    }

    #[test]
    fn wire_form_is_length_prefixed_lowercase_labels() {
        let n: DomainName = "WWW.Example.com".parse().unwrap();
        assert_eq!(n.as_wire(), b"\x03www\x07example\x03com\x00");
        assert_eq!(DomainName::root().as_wire(), [0]);
        let suffixes: Vec<&[u8]> = n.suffixes().collect();
        assert_eq!(
            suffixes,
            [
                &b"\x03www\x07example\x03com\x00"[..],
                b"\x07example\x03com\x00",
                b"\x03com\x00",
                b"\x00"
            ]
        );
    }

    #[test]
    fn subdomain_relation_follows_label_boundaries() {
        // The byte `0` (0x30 = 48) in the child's label spells the length
        // octet of the other name's 48-byte first label: as raw bytes, the
        // child's wire form ends with the other's, but no label boundary
        // lines up with it.
        let long = "a".repeat(48);
        let other: DomainName = format!("{long}.com").parse().unwrap();
        let child: DomainName = format!("z0{long}.com").parse().unwrap();
        assert!(child.as_wire().ends_with(other.as_wire()));
        assert!(!child.is_subdomain_of(&other));
        assert!(child.is_subdomain_of(&"com".parse().unwrap()));
    }

    #[test]
    fn child_prepends() {
        let ex: DomainName = "example.com".parse().unwrap();
        assert_eq!(ex.child("www").unwrap().to_string(), "www.example.com");
        assert!(ex.child("bad label").is_err());
    }

    #[test]
    fn case_insensitive_equality_via_canonicalization() {
        let a: DomainName = "MiXeD.CaSe.Org".parse().unwrap();
        let b: DomainName = "mixed.case.org".parse().unwrap();
        assert_eq!(a, b);
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn underscore_allowed() {
        let n: DomainName = "_dmarc.example.com".parse().unwrap();
        assert_eq!(n.label_count(), 3);
    }
}
