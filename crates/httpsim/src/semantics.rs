//! Status-code classification.

/// Coarse status classes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StatusClass {
    Informational,
    Success,
    Redirect,
    ClientError,
    ServerError,
    /// Outside 100–599.
    Invalid,
}

impl StatusClass {
    pub fn of(status: u16) -> StatusClass {
        match status {
            100..=199 => StatusClass::Informational,
            200..=299 => StatusClass::Success,
            300..=399 => StatusClass::Redirect,
            400..=499 => StatusClass::ClientError,
            500..=599 => StatusClass::ServerError,
            _ => StatusClass::Invalid,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes() {
        assert_eq!(StatusClass::of(200), StatusClass::Success);
        assert_eq!(StatusClass::of(204), StatusClass::Success);
        assert_eq!(StatusClass::of(301), StatusClass::Redirect);
        assert_eq!(StatusClass::of(404), StatusClass::ClientError);
        assert_eq!(StatusClass::of(503), StatusClass::ServerError);
        assert_eq!(StatusClass::of(100), StatusClass::Informational);
        assert_eq!(StatusClass::of(0), StatusClass::Invalid);
        assert_eq!(StatusClass::of(999), StatusClass::Invalid);
    }
}
