//! Codec error type.

use std::fmt;

/// Errors produced while encoding or decoding DNS wire data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the structure was complete.
    Truncated,
    /// A label exceeded 63 octets.
    LabelTooLong(usize),
    /// A domain name exceeded 255 octets on the wire.
    NameTooLong(usize),
    /// A label length octet used the reserved 0b10/0b01 prefix.
    BadLabelType(u8),
    /// Compression pointers formed a loop or chained too deep.
    PointerLoop,
    /// A compression pointer referred forward (or to itself).
    BadPointer(u16),
    /// A label contained a byte outside the permitted hostname alphabet.
    BadLabelByte(u8),
    /// An empty label (e.g. `a..b`) or empty non-root name.
    EmptyLabel,
    /// RDLENGTH disagreed with the RDATA we parsed.
    RdataLengthMismatch { declared: u16, actual: usize },
    /// The message would exceed the 64 KiB wire limit.
    MessageTooLong(usize),
    /// Count field promised more records than the message contains.
    CountMismatch,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::LabelTooLong(n) => write!(f, "label of {n} octets exceeds 63"),
            WireError::NameTooLong(n) => write!(f, "name of {n} octets exceeds 255"),
            WireError::BadLabelType(b) => write!(f, "reserved label type in octet {b:#04x}"),
            WireError::PointerLoop => write!(f, "compression pointer loop"),
            WireError::BadPointer(o) => write!(f, "bad compression pointer to offset {o}"),
            WireError::BadLabelByte(b) => write!(f, "byte {b:#04x} not allowed in hostname label"),
            WireError::EmptyLabel => write!(f, "empty label"),
            WireError::RdataLengthMismatch { declared, actual } => {
                write!(f, "RDLENGTH {declared} != parsed RDATA length {actual}")
            }
            WireError::MessageTooLong(n) => write!(f, "message of {n} octets exceeds 65535"),
            WireError::CountMismatch => write!(f, "record count exceeds message contents"),
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(WireError::Truncated.to_string().contains("truncated"));
        assert!(WireError::LabelTooLong(70).to_string().contains("70"));
        assert!(WireError::RdataLengthMismatch {
            declared: 4,
            actual: 6
        }
        .to_string()
        .contains("4"));
    }
}
