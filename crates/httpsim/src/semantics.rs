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

pub fn is_success(status: u16) -> bool {
    StatusClass::of(status) == StatusClass::Success
}

pub fn is_redirect(status: u16) -> bool {
    StatusClass::of(status) == StatusClass::Redirect
}

pub fn is_client_error(status: u16) -> bool {
    StatusClass::of(status) == StatusClass::ClientError
}

pub fn is_server_error(status: u16) -> bool {
    StatusClass::of(status) == StatusClass::ServerError
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

    #[test]
    fn helpers() {
        assert!(is_success(200));
        assert!(is_redirect(307));
        assert!(is_client_error(403));
        assert!(is_server_error(502));
        assert!(!is_success(301));
    }
}
