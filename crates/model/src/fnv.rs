//! The workspace's one hash, 64-bit FNV-1a: content fingerprints, RNG
//! stream labels and config digests all go through [`Fnv`].

use std::hash::{Hash, Hasher};

/// 64-bit FNV-1a. As a [`Hasher`] it hashes a value's `Hash` feed; as a
/// [`std::fmt::Write`] it hashes formatted text without materializing it.
pub struct Fnv(u64);

impl Fnv {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// The hash of every byte written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        Hasher::write(self, s.as_bytes());
        Ok(())
    }
}

/// The content fingerprint of a value: FNV-1a over its `Hash` feed, the
/// native-endian integers, `usize` lengths and string bytes that
/// `#[derive(Hash)]` writes. Fingerprints therefore compare within one
/// platform, and renaming a field does not change them.
pub fn fingerprint<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv::new();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        for (text, expected) in [
            ("", 0xcbf2_9ce4_8422_2325),
            ("a", 0xaf63_dc4c_8601_ec8c),
            ("foobar", 0x8594_4171_f739_67e8),
        ] {
            let mut h = Fnv::new();
            std::fmt::Write::write_str(&mut h, text).expect("hashing cannot fail");
            assert_eq!(h.finish(), expected, "{text:?}");
            let mut h = Fnv::new();
            Hasher::write(&mut h, text.as_bytes());
            assert_eq!(Hasher::finish(&h), expected, "{text:?}");
        }
    }

    #[test]
    fn fingerprint_hashes_the_hash_feed() {
        let mut h = Fnv::new();
        h.write_u32(7);
        h.write_u8(0xff);
        assert_eq!(fingerprint(&(7u32, 0xffu8)), h.finish());
        assert_ne!(fingerprint("ab"), fingerprint("ba"));
        assert_ne!(fingerprint(&[1u8, 2][..]), fingerprint(&[1u8][..]));
    }
}
