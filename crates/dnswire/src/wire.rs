//! Low-level wire reader/writer with name compression.

use crate::error::WireError;
use crate::name::{is_hostname_byte, DomainName, NameBuilder, MAX_NAME_LEN};

/// Maximum chained compression pointers we will follow before declaring a
/// loop. Any legitimate name fits in far fewer.
const MAX_POINTER_CHAIN: usize = 64;

/// Writes big-endian DNS wire data, tracking name offsets for compression.
pub struct WireWriter {
    buf: Vec<u8>,
    /// Where each name (or name suffix) written in label form starts, in
    /// writing order. Each distinct name appears once, at its first offset,
    /// and only offsets a 14-bit pointer can carry are kept.
    name_offsets: Vec<u16>,
}

impl Default for WireWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl WireWriter {
    pub fn new() -> Self {
        Self::with_buffer(Vec::new())
    }

    /// A writer that fills `buf` from the start, reusing its allocation
    /// (one of at least 512 bytes, so a typical message never regrows it).
    pub(crate) fn with_buffer(mut buf: Vec<u8>) -> Self {
        buf.clear();
        buf.reserve(512);
        WireWriter {
            buf,
            name_offsets: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Overwrite a previously written u16 (used to patch RDLENGTH).
    pub fn patch_u16(&mut self, offset: usize, v: u16) {
        self.buf[offset..offset + 2].copy_from_slice(&v.to_be_bytes());
    }

    /// Write a domain name with compression against earlier names.
    pub fn put_name(&mut self, name: &DomainName) {
        // Walk suffixes from the full name downward; emit labels until a
        // suffix equals a name already in the buffer, then emit a pointer to
        // it. Only names written before this one are candidates: a suffix
        // never equals a longer suffix of the same name.
        let earlier = self.name_offsets.len();
        for suffix in name.suffixes() {
            let label_len = usize::from(suffix[0]);
            if label_len == 0 {
                self.buf.push(0);
                return;
            }
            let found = self.name_offsets[..earlier]
                .iter()
                .find(|&&off| name_at_equals(&self.buf, usize::from(off), suffix));
            if let Some(&off) = found {
                self.put_u16(0xC000 | off);
                return;
            }
            // Record where this suffix starts (only if pointer-addressable:
            // pointers carry 14 bits).
            let here = self.buf.len();
            if here <= 0x3FFF {
                self.name_offsets.push(here as u16);
            }
            self.buf.extend_from_slice(&suffix[..=label_len]);
        }
    }

    /// Write a name without compression (used inside RDATA where some
    /// implementations choke on pointers; we still *read* compressed RDATA
    /// names).
    pub fn put_name_uncompressed(&mut self, name: &DomainName) {
        self.buf.extend_from_slice(name.as_wire());
    }
}

/// Does the name written at `at` in `buf`, followed through its pointers,
/// equal the uncompressed wire form `wire`? Only reads names `put_name`
/// wrote, so every label and pointer is in bounds.
fn name_at_equals(buf: &[u8], mut at: usize, mut wire: &[u8]) -> bool {
    loop {
        let len = buf[at];
        if len & 0xC0 == 0xC0 {
            at = usize::from(u16::from_be_bytes([len & 0x3F, buf[at + 1]]));
            continue;
        }
        let n = 1 + usize::from(len);
        if wire.len() < n || buf[at..at + n] != wire[..n] {
            return false;
        }
        if len == 0 {
            return true;
        }
        at += n;
        wire = &wire[n..];
    }
}

/// Reads big-endian DNS wire data; follows compression pointers.
pub struct WireReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        WireReader { data, pos: 0 }
    }

    pub fn pos(&self) -> usize {
        self.pos
    }

    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    pub fn is_at_end(&self) -> bool {
        self.pos == self.data.len()
    }

    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        let v = *self.data.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(v)
    }

    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        let b = self.get_slice(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let b = self.get_slice(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn get_slice(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < len {
            return Err(WireError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    /// Read a (possibly compressed) domain name starting at the cursor.
    ///
    /// The cursor advances past the name's *in-place* representation (up to
    /// and including the first pointer or the terminating root octet);
    /// pointer targets are followed without moving the cursor, with loop
    /// and bounds protection.
    pub fn get_name(&mut self) -> Result<DomainName, WireError> {
        let mut name = NameBuilder::new();
        // The first byte outside the hostname alphabet, reported only once
        // the walk itself succeeded.
        let mut bad_byte: Option<u8> = None;
        let mut read_pos = self.pos;
        let mut followed: usize = 0;
        // The cursor advance, fixed once we hit the first pointer.
        let mut cursor_after: Option<usize> = None;

        loop {
            let len_octet = *self.data.get(read_pos).ok_or(WireError::Truncated)?;
            match len_octet & 0xC0 {
                0x00 => {
                    if len_octet == 0 {
                        // Root: name complete. If no pointer fixed the
                        // cursor yet, it lands just past this octet.
                        self.pos = cursor_after.unwrap_or(read_pos + 1);
                        break;
                    }
                    let len = len_octet as usize;
                    let start = read_pos + 1;
                    let end = start + len;
                    if end > self.data.len() {
                        return Err(WireError::Truncated);
                    }
                    let label = &self.data[start..end];
                    name.push(label);
                    if name.wire_len() > MAX_NAME_LEN {
                        return Err(WireError::NameTooLong(name.wire_len()));
                    }
                    if bad_byte.is_none() {
                        bad_byte = label.iter().copied().find(|&b| !is_hostname_byte(b));
                    }
                    read_pos = end;
                }
                0xC0 => {
                    let second = *self.data.get(read_pos + 1).ok_or(WireError::Truncated)?;
                    let target = (u16::from(len_octet & 0x3F) << 8) | u16::from(second);
                    if cursor_after.is_none() {
                        cursor_after = Some(read_pos + 2);
                    }
                    // Pointers must refer strictly backwards.
                    if usize::from(target) >= read_pos {
                        return Err(WireError::BadPointer(target));
                    }
                    followed += 1;
                    if followed > MAX_POINTER_CHAIN {
                        return Err(WireError::PointerLoop);
                    }
                    read_pos = usize::from(target);
                }
                other => return Err(WireError::BadLabelType(other)),
            }
        }

        match bad_byte {
            Some(b) => Err(WireError::BadLabelByte(b)),
            None => name.finish(),
        }
    }

    /// Move the cursor to an absolute offset (clamped to the input length).
    ///
    /// Used by salvage decoding to resynchronize after a record that failed
    /// to parse; a strict decode never needs this.
    pub fn seek(&mut self, pos: usize) {
        self.pos = pos.min(self.data.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn primitive_roundtrip() {
        let mut w = WireWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_u32(0xDEADBEEF);
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u16().unwrap(), 0x1234);
        assert_eq!(r.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.get_slice(3).unwrap(), &[1, 2, 3]);
        assert!(r.is_at_end());
    }

    #[test]
    fn truncation_errors() {
        let mut r = WireReader::new(&[0x01]);
        assert_eq!(r.get_u16().unwrap_err(), WireError::Truncated);
        assert_eq!(r.get_u8().unwrap(), 1);
        assert_eq!(r.get_u8().unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn name_roundtrip_uncompressed() {
        let mut w = WireWriter::new();
        w.put_name_uncompressed(&name("www.example.com"));
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 17);
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_name().unwrap(), name("www.example.com"));
        assert!(r.is_at_end());
    }

    #[test]
    fn root_name_roundtrip() {
        let mut w = WireWriter::new();
        w.put_name(&DomainName::root());
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0]);
        let mut r = WireReader::new(&bytes);
        assert!(r.get_name().unwrap().is_root());
    }

    #[test]
    fn compression_reuses_suffix() {
        let mut w = WireWriter::new();
        w.put_name(&name("www.example.com"));
        let first_len = w.len();
        w.put_name(&name("mail.example.com"));
        let bytes = w.into_bytes();
        // Second name should be 4+1 label octets + 2 pointer bytes = 7.
        assert_eq!(bytes.len(), first_len + 7);
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_name().unwrap(), name("www.example.com"));
        assert_eq!(r.get_name().unwrap(), name("mail.example.com"));
        assert!(r.is_at_end());
    }

    #[test]
    fn full_name_pointer_when_repeated() {
        let mut w = WireWriter::new();
        w.put_name(&name("a.b.c"));
        let first_len = w.len();
        w.put_name(&name("a.b.c"));
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), first_len + 2, "pure pointer");
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_name().unwrap(), name("a.b.c"));
        assert_eq!(r.get_name().unwrap(), name("a.b.c"));
    }

    #[test]
    fn rejects_forward_pointer() {
        // Pointer at offset 0 pointing to offset 5 (forward).
        let bytes = [0xC0, 0x05, 0, 0, 0, 0];
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_name().unwrap_err(), WireError::BadPointer(5));
    }

    #[test]
    fn rejects_self_pointer() {
        let bytes = [0xC0, 0x00];
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_name().unwrap_err(), WireError::BadPointer(0));
    }

    #[test]
    fn rejects_pointer_loop() {
        // offset 0: label "a"; offset 2: pointer to 0 — reading from offset 2
        // gives "a" then loops back to... actually pointer to 0 reads label
        // then root? Construct a genuine loop: two pointers at 2 and 4.
        // ptr@4 -> 2, ptr@2 -> ... must point backwards; point 2 -> 0 where
        // a label of len 1 'a' sits, then the parser continues at offset 2,
        // which is the pointer to 0 again -> BadPointer (not a loop since
        // read_pos(2) > target(0)? target 0 < read_pos 2 so allowed; then
        // label at 0 consumed again -> read_pos 2 -> pointer to 0 ... loop!
        let bytes = [0x01, b'a', 0xC0, 0x00];
        let mut r = WireReader::new(&bytes);
        r.get_u8().unwrap();
        r.get_u8().unwrap();
        assert_eq!(r.get_name().unwrap_err(), WireError::PointerLoop);
    }

    #[test]
    fn rejects_reserved_label_type() {
        let bytes = [0x80, 0x01];
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_name().unwrap_err(), WireError::BadLabelType(0x80));
    }

    #[test]
    fn truncated_label_errors() {
        let bytes = [0x05, b'a', b'b']; // promises 5 octets, has 2
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_name().unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn missing_terminator_errors() {
        let bytes = [0x01, b'a']; // label then end of input, no root octet
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_name().unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn cursor_lands_after_pointer() {
        let mut w = WireWriter::new();
        w.put_name(&name("example.com"));
        w.put_name(&name("example.com"));
        w.put_u16(0xBEEF);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        r.get_name().unwrap();
        r.get_name().unwrap();
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
    }

    #[test]
    fn patch_u16_overwrites() {
        let mut w = WireWriter::new();
        w.put_u16(0);
        w.put_u8(7);
        w.patch_u16(0, 0x0102);
        assert_eq!(w.into_bytes(), vec![1, 2, 7]);
    }

    #[test]
    fn overlong_reconstructed_name_rejected() {
        // Chain labels via pointers to exceed 255 total octets.
        let mut bytes = Vec::new();
        // 4 runs of 63-byte labels then root = fine alone (257 > 255 though!)
        for _ in 0..4 {
            bytes.push(63);
            bytes.extend(std::iter::repeat(b'x').take(63));
        }
        bytes.push(0);
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            r.get_name().unwrap_err(),
            WireError::NameTooLong(_)
        ));
    }
}
