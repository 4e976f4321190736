//! IPv4 prefix arithmetic.
//!
//! The BGP analysis (Section 4.6) works at the granularity of announced IP
//! prefixes; clients and replicas map onto prefixes, and per-prefix update
//! statistics are binned hourly. This module provides the small amount of
//! prefix machinery that requires: construction, normalization, containment,
//! and parsing/printing in the usual `a.b.c.d/len` notation.

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// An IPv4 prefix in CIDR notation, always stored normalized (host bits zero).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ipv4Prefix {
    addr: Ipv4Addr,
    len: u8,
}

/// Error from [`Ipv4Prefix::new`] / [`Ipv4Prefix::from_str`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PrefixError {
    /// Prefix length above 32.
    LengthOutOfRange(u8),
    /// Text form did not parse.
    Malformed(String),
}

impl fmt::Display for PrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixError::LengthOutOfRange(l) => write!(f, "prefix length {l} out of range 0..=32"),
            PrefixError::Malformed(s) => write!(f, "malformed prefix {s:?}"),
        }
    }
}

impl std::error::Error for PrefixError {}

impl Ipv4Prefix {
    /// Create a prefix, normalizing the address by masking host bits.
    pub fn new(addr: Ipv4Addr, len: u8) -> Result<Self, PrefixError> {
        if len > 32 {
            return Err(PrefixError::LengthOutOfRange(len));
        }
        let masked = Ipv4Addr::from(u32::from(addr) & mask(len));
        Ok(Ipv4Prefix { addr: masked, len })
    }

    /// The enclosing /24 of an address — the granularity at which the paper
    /// observes that co-subnet replicas fail together (Section 4.5).
    pub fn slash24_of(addr: Ipv4Addr) -> Self {
        Ipv4Prefix::new(addr, 24).expect("24 <= 32")
    }

    /// Network address (host bits zero).
    pub fn network(&self) -> Ipv4Addr {
        self.addr
    }

    /// Prefix length (mask bits — not a container length).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Does this prefix cover `addr`?
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        u32::from(addr) & mask(self.len) == u32::from(self.addr)
    }

    /// Is `other` equal to or nested inside this prefix?
    pub fn covers(&self, other: &Ipv4Prefix) -> bool {
        other.len >= self.len && self.contains(other.addr)
    }

    /// Number of addresses in the prefix (2^(32-len)), saturating for /0.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.len as u32)
    }

    /// The `i`-th host address inside the prefix (wrapping within the block).
    ///
    /// Useful for deterministically laying out simulated clients and replicas
    /// inside their prefixes.
    pub fn host(&self, i: u64) -> Ipv4Addr {
        let offset = (i % self.size()) as u32;
        Ipv4Addr::from(u32::from(self.addr).wrapping_add(offset))
    }
}

fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len as u32)
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl fmt::Debug for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for Ipv4Prefix {
    type Err = PrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_s, len_s) = s
            .split_once('/')
            .ok_or_else(|| PrefixError::Malformed(s.to_string()))?;
        let addr: Ipv4Addr = addr_s
            .parse()
            .map_err(|_| PrefixError::Malformed(s.to_string()))?;
        let len: u8 = len_s
            .parse()
            .map_err(|_| PrefixError::Malformed(s.to_string()))?;
        Ipv4Prefix::new(addr, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_host_bits() {
        let p = Ipv4Prefix::new(Ipv4Addr::new(10, 1, 2, 3), 16).unwrap();
        assert_eq!(p.network(), Ipv4Addr::new(10, 1, 0, 0));
        assert_eq!(p.to_string(), "10.1.0.0/16");
    }

    #[test]
    fn rejects_bad_length() {
        assert_eq!(
            Ipv4Prefix::new(Ipv4Addr::new(1, 2, 3, 4), 33),
            Err(PrefixError::LengthOutOfRange(33))
        );
    }

    #[test]
    fn containment() {
        let p: Ipv4Prefix = "192.168.4.0/22".parse().unwrap();
        assert!(p.contains(Ipv4Addr::new(192, 168, 4, 1)));
        assert!(p.contains(Ipv4Addr::new(192, 168, 7, 255)));
        assert!(!p.contains(Ipv4Addr::new(192, 168, 8, 0)));
    }

    #[test]
    fn covers_nested() {
        let outer: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        let inner: Ipv4Prefix = "10.20.0.0/16".parse().unwrap();
        assert!(outer.covers(&inner));
        assert!(!inner.covers(&outer));
        assert!(outer.covers(&outer));
    }

    #[test]
    fn default_route() {
        let d: Ipv4Prefix = "0.0.0.0/0".parse().unwrap();
        assert!(d.contains(Ipv4Addr::new(255, 255, 255, 255)));
        assert_eq!(d.size(), 1 << 32);
    }

    #[test]
    fn slash24_of_address() {
        let p = Ipv4Prefix::slash24_of(Ipv4Addr::new(203, 0, 113, 77));
        assert_eq!(p.to_string(), "203.0.113.0/24");
    }

    #[test]
    fn host_enumeration_wraps() {
        let p: Ipv4Prefix = "198.51.100.0/30".parse().unwrap();
        assert_eq!(p.size(), 4);
        assert_eq!(p.host(0), Ipv4Addr::new(198, 51, 100, 0));
        assert_eq!(p.host(3), Ipv4Addr::new(198, 51, 100, 3));
        assert_eq!(p.host(4), Ipv4Addr::new(198, 51, 100, 0));
    }

    #[test]
    fn parse_errors() {
        assert!("1.2.3.4".parse::<Ipv4Prefix>().is_err());
        assert!("1.2.3/8".parse::<Ipv4Prefix>().is_err());
        assert!("1.2.3.4/xx".parse::<Ipv4Prefix>().is_err());
        assert!("1.2.3.4/40".parse::<Ipv4Prefix>().is_err());
    }

    #[test]
    fn roundtrip_display_parse() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "203.0.113.0/24", "1.2.3.4/32"] {
            let p: Ipv4Prefix = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }
}
