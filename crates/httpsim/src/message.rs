//! A minimal HTTP/1.1 text codec.
//!
//! Supports exactly what the measurement exchanges: `GET` requests with
//! `Host`, `User-Agent` and cache-control headers, and responses with a
//! status line, `Content-Length`, and an optional `Location`. Both message
//! types borrow their strings (from the caller when built, from the text
//! when decoded), so building, encoding into a reused buffer and decoding
//! allocate nothing. Parsing is hardened: header count and line lengths are
//! bounded, every header line is checked, and malformed input yields typed
//! errors rather than panics.

use std::fmt::{self, Write as _};

/// Maximum header lines we accept (defense against absurd input).
const MAX_HEADERS: usize = 64;
/// Maximum length of any single line.
const MAX_LINE_LEN: usize = 8_192;

/// Codec errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// The request/status line is malformed.
    BadStartLine(String),
    /// A header line lacks a colon or is overlong.
    BadHeader(String),
    /// Too many header lines.
    TooManyHeaders,
    /// The message ended before the blank line.
    Truncated,
    /// Status code is not three digits.
    BadStatus(String),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadStartLine(l) => write!(f, "malformed start line {l:?}"),
            HttpError::BadHeader(l) => write!(f, "malformed header {l:?}"),
            HttpError::TooManyHeaders => write!(f, "more than {MAX_HEADERS} headers"),
            HttpError::Truncated => write!(f, "message truncated before blank line"),
            HttpError::BadStatus(s) => write!(f, "bad status code {s:?}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// The `User-Agent` every request carries.
const USER_AGENT: &str = "wget-sim/0.1";

/// An HTTP request (headers only; the measurement sends no bodies). It
/// borrows its text: from the caller when built, from the head when
/// decoded, so neither allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HttpRequest<'a> {
    pub method: &'a str,
    pub path: &'a str,
    /// The `Host` header (the first one, when decoded); `None` without one.
    pub host: Option<&'a str>,
    /// Does a `Cache-Control` or `Pragma` header carry `no-cache`?
    pub no_cache: bool,
}

impl<'a> HttpRequest<'a> {
    /// The measurement's standard request: `GET path` with `Host`,
    /// `User-Agent` and, when `no_cache` is set, the `Cache-Control:
    /// no-cache` and `Pragma: no-cache` directives (Section 3.4: CN clients
    /// force origin fetches through their proxies).
    pub fn get(host: &'a str, path: &'a str, no_cache: bool) -> HttpRequest<'a> {
        HttpRequest {
            method: "GET",
            path,
            host: Some(host),
            no_cache,
        }
    }

    /// Serialize to wire text.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// [`HttpRequest::encode`] into a caller-owned buffer, which is cleared
    /// first, so a hot loop can reuse one allocation for every request.
    pub fn encode_into(&self, out: &mut String) {
        out.clear();
        for part in [self.method, " ", self.path, " HTTP/1.1\r\n"] {
            out.push_str(part);
        }
        if let Some(host) = self.host {
            push_header(out, "Host", host);
        }
        push_header(out, "User-Agent", USER_AGENT);
        if self.no_cache {
            push_header(out, "Cache-Control", "no-cache");
            push_header(out, "Pragma", "no-cache");
        }
        out.push_str("\r\n");
    }

    /// Parse from wire text. Every header line is checked; the result keeps
    /// the ones the measurement reads.
    pub fn decode(text: &'a str) -> Result<HttpRequest<'a>, HttpError> {
        let mut lines = text.split("\r\n");
        let start = lines.next().ok_or(HttpError::Truncated)?;
        let mut parts = start.split(' ');
        let method = parts.next().filter(|s| !s.is_empty());
        let path = parts.next();
        let version = parts.next();
        let (Some(method), Some(path), Some(version)) = (method, path, version) else {
            return Err(HttpError::BadStartLine(start.to_string()));
        };
        if !version.starts_with("HTTP/") {
            return Err(HttpError::BadStartLine(start.to_string()));
        }
        // The first of each header decides.
        let (mut host, mut cache_control, mut pragma) = (None, None, None);
        parse_headers(text, lines, |name, value| {
            if name.eq_ignore_ascii_case("Host") {
                host.get_or_insert(value);
            } else if name.eq_ignore_ascii_case("Cache-Control") {
                cache_control.get_or_insert(value);
            } else if name.eq_ignore_ascii_case("Pragma") {
                pragma.get_or_insert(value);
            }
        })?;
        Ok(HttpRequest {
            method,
            path,
            host,
            no_cache: [cache_control, pragma].into_iter().flatten().any(says_no_cache),
        })
    }
}

/// Does a cache directive's value contain `no-cache`, in any case?
fn says_no_cache(value: &str) -> bool {
    value
        .as_bytes()
        .windows(b"no-cache".len())
        .any(|w| w.eq_ignore_ascii_case(b"no-cache"))
}

/// An HTTP response head (the body is represented by its length: the
/// measurement only needs sizes, not content). Like [`HttpRequest`] it
/// borrows its text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HttpResponse<'a> {
    pub status: u16,
    pub reason: &'a str,
    /// The `Location` header (the first one, when decoded).
    pub location: Option<&'a str>,
    /// The body length, written as `Content-Length`; a decoded head
    /// without a numeric one reads 0.
    pub body_len: u64,
}

impl<'a> HttpResponse<'a> {
    /// A 200 response carrying an index object of `body_len` bytes.
    pub fn ok(body_len: u64) -> HttpResponse<'a> {
        HttpResponse {
            status: 200,
            reason: "OK",
            location: None,
            body_len,
        }
    }

    /// A redirect to `location`.
    pub fn redirect(status: u16, location: &'a str) -> HttpResponse<'a> {
        debug_assert!((300..400).contains(&status));
        HttpResponse {
            status,
            reason: "Redirect",
            location: Some(location),
            body_len: 0,
        }
    }

    /// An error status response.
    pub fn error(status: u16, reason: &'a str) -> HttpResponse<'a> {
        HttpResponse {
            status,
            reason,
            location: None,
            body_len: 0,
        }
    }

    /// The redirect target, if this is a redirect with a Location header.
    pub fn redirect_target(&self) -> Option<&'a str> {
        self.location.filter(|_| (300..400).contains(&self.status))
    }

    /// Serialize the head (status line + headers) to wire text.
    pub fn encode_head(&self) -> String {
        let mut out = String::new();
        self.encode_head_into(&mut out);
        out
    }

    /// [`HttpResponse::encode_head`] into a caller-owned buffer, which is
    /// cleared first, so a hot loop can reuse one allocation for every head.
    pub fn encode_head_into(&self, out: &mut String) {
        out.clear();
        write!(out, "HTTP/1.1 {} {}\r\n", self.status, self.reason)
            .expect("formatting into a String cannot fail");
        if let Some(location) = self.location {
            push_header(out, "Location", location);
        }
        write!(out, "Content-Length: {}\r\n\r\n", self.body_len)
            .expect("formatting into a String cannot fail");
    }

    /// Parse a response head. Every header line is checked; `body_len` is
    /// taken from the first `Content-Length` (0 when absent or not a
    /// number).
    pub fn decode_head(text: &'a str) -> Result<HttpResponse<'a>, HttpError> {
        let mut lines = text.split("\r\n");
        let start = lines.next().ok_or(HttpError::Truncated)?;
        let mut parts = start.splitn(3, ' ');
        let version = parts.next().filter(|v| v.starts_with("HTTP/"));
        let code = parts.next();
        let reason = parts.next().unwrap_or("");
        let (Some(_), Some(code)) = (version, code) else {
            return Err(HttpError::BadStartLine(start.to_string()));
        };
        if code.len() != 3 || !code.bytes().all(|b| b.is_ascii_digit()) {
            return Err(HttpError::BadStatus(code.to_string()));
        }
        let status: u16 = code.parse().expect("3 ascii digits");
        // The first of each header decides.
        let (mut location, mut content_length) = (None, None);
        parse_headers(text, lines, |name, value| {
            if name.eq_ignore_ascii_case("Location") {
                location.get_or_insert(value);
            } else if name.eq_ignore_ascii_case("Content-Length") {
                content_length.get_or_insert(value);
            }
        })?;
        Ok(HttpResponse {
            status,
            reason,
            location,
            body_len: content_length.and_then(|v| v.parse().ok()).unwrap_or(0),
        })
    }
}

/// Append one header line.
fn push_header(out: &mut String, name: &str, value: &str) {
    for part in [name, ": ", value, "\r\n"] {
        out.push_str(part);
    }
}

/// Check every header line up to the blank line that ends the head, and
/// hand each one's trimmed name and value to `header`.
fn parse_headers<'a>(
    text: &str,
    lines: impl Iterator<Item = &'a str>,
    mut header: impl FnMut(&'a str, &'a str),
) -> Result<(), HttpError> {
    // Splitting on "\r\n" makes any trailing CRLF look like a blank line;
    // the real head terminator is an empty *line*, i.e. "\r\n\r\n".
    if !text.contains("\r\n\r\n") {
        return Err(HttpError::Truncated);
    }
    for (count, line) in lines.enumerate() {
        if line.is_empty() {
            return Ok(());
        }
        if line.len() > MAX_LINE_LEN {
            // Quote the first 64 bytes, cut back to a character boundary.
            return Err(HttpError::BadHeader(
                line[..line.floor_char_boundary(64)].to_string(),
            ));
        }
        if count >= MAX_HEADERS {
            return Err(HttpError::TooManyHeaders);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadHeader(line.to_string()))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::BadHeader(line.to_string()));
        }
        header(name.trim(), value.trim());
    }
    Err(HttpError::Truncated)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = HttpRequest::get("www.example.com", "/", true);
        let text = req.encode();
        let decoded = HttpRequest::decode(&text).unwrap();
        assert_eq!(decoded, req);
        assert_eq!(decoded.method, "GET");
        assert_eq!(decoded.host, Some("www.example.com"));
        assert!(decoded.no_cache);
        assert_eq!(
            text,
            "GET / HTTP/1.1\r\nHost: www.example.com\r\nUser-Agent: wget-sim/0.1\r\n\
             Cache-Control: no-cache\r\nPragma: no-cache\r\n\r\n"
        );
    }

    #[test]
    fn request_without_no_cache() {
        let req = HttpRequest::get("example.org", "/index.html", false);
        let text = req.encode();
        assert!(!text.contains("no-cache"));
        assert_eq!(HttpRequest::decode(&text), Ok(req));
    }

    #[test]
    fn decoded_request_reads_host_and_cache_directives_in_any_case() {
        let text = "GET /x HTTP/1.0\r\nhost: a.example\r\nX-Other: 1\r\nHOST: b.example\r\n\
                    pragma: No-Cache\r\n\r\n";
        let req = HttpRequest::decode(text).unwrap();
        assert_eq!((req.method, req.path), ("GET", "/x"));
        assert_eq!(req.host, Some("a.example"), "the first Host wins");
        assert!(req.no_cache, "Pragma alone, in any case");
        let bare = HttpRequest::decode("GET / HTTP/1.1\r\nCache-Control: max-age=0\r\n\r\n");
        assert_eq!(bare.map(|r| (r.host, r.no_cache)), Ok((None, false)));
    }

    #[test]
    fn response_roundtrip() {
        let resp = HttpResponse::ok(24_000);
        let text = resp.encode_head();
        let decoded = HttpResponse::decode_head(&text).unwrap();
        assert_eq!(decoded, resp);
        assert_eq!(decoded.status, 200);
        assert_eq!(decoded.body_len, 24_000);
        assert_eq!(decoded.redirect_target(), None);
        assert_eq!(text, "HTTP/1.1 200 OK\r\nContent-Length: 24000\r\n\r\n");
    }

    #[test]
    fn redirect_location() {
        let resp = HttpResponse::redirect(302, "http://www.example.com/");
        assert_eq!(resp.redirect_target(), Some("http://www.example.com/"));
        let text = resp.encode_head();
        assert_eq!(
            text,
            "HTTP/1.1 302 Redirect\r\nLocation: http://www.example.com/\r\n\
             Content-Length: 0\r\n\r\n"
        );
        let decoded = HttpResponse::decode_head(&text).unwrap();
        assert_eq!(decoded, resp);
        assert_eq!(decoded.redirect_target(), Some("http://www.example.com/"));
    }

    #[test]
    fn location_ignored_on_non_redirect() {
        let resp = HttpResponse {
            location: Some("/x"),
            ..HttpResponse::ok(10)
        };
        assert_eq!(resp.redirect_target(), None);
    }

    #[test]
    fn malformed_start_lines() {
        assert!(matches!(
            HttpRequest::decode("GET\r\n\r\n").unwrap_err(),
            HttpError::BadStartLine(_)
        ));
        assert!(matches!(
            HttpRequest::decode("GET / FTP/1.1\r\n\r\n").unwrap_err(),
            HttpError::BadStartLine(_)
        ));
        assert!(matches!(
            HttpResponse::decode_head("HTTP/1.1 OK\r\n\r\n").unwrap_err(),
            HttpError::BadStatus(_)
        ));
        assert!(matches!(
            HttpResponse::decode_head("HTTP/1.1 20x OK\r\n\r\n").unwrap_err(),
            HttpError::BadStatus(_)
        ));
    }

    #[test]
    fn malformed_headers() {
        assert!(matches!(
            HttpRequest::decode("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n").unwrap_err(),
            HttpError::BadHeader(_)
        ));
        assert!(matches!(
            HttpRequest::decode("GET / HTTP/1.1\r\nHost: x\r\n").unwrap_err(),
            HttpError::Truncated
        ));
    }

    #[test]
    fn too_many_headers_rejected() {
        let mut text = String::from("GET / HTTP/1.1\r\n");
        for i in 0..70 {
            text.push_str(&format!("X-H{i}: v\r\n"));
        }
        text.push_str("\r\n");
        assert_eq!(
            HttpRequest::decode(&text).unwrap_err(),
            HttpError::TooManyHeaders
        );
    }

    #[test]
    fn header_names_match_in_any_case() {
        let head = "HTTP/1.1 301 Moved\r\ncontent-length: 5\r\nLOCATION: /a\r\nLocation: /b\r\n\r\n";
        let decoded = HttpResponse::decode_head(head).unwrap();
        assert_eq!(decoded.body_len, 5);
        assert_eq!(decoded.redirect_target(), Some("/a"), "the first Location wins");
        assert_eq!(decoded.reason, "Moved");
    }

    #[test]
    fn missing_content_length_defaults_zero() {
        let decoded = HttpResponse::decode_head("HTTP/1.1 204 No Content\r\n\r\n").unwrap();
        assert_eq!(decoded.body_len, 0);
        let decoded = HttpResponse::decode_head("HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n");
        assert_eq!(decoded.map(|r| r.body_len), Ok(0), "not a number reads 0");
    }

    #[test]
    fn overlong_header_with_multibyte_text_is_an_error_not_a_panic() {
        // Byte 64 of this line falls inside the two-byte `é`.
        let line = format!("X-A:{}é{}", "a".repeat(59), "b".repeat(9000));
        let expected = HttpError::BadHeader(format!("X-A:{}", "a".repeat(59)));
        let request = format!("GET / HTTP/1.1\r\n{line}\r\n\r\n");
        assert_eq!(HttpRequest::decode(&request).unwrap_err(), expected);
        let response = format!("HTTP/1.1 200 OK\r\n{line}\r\n\r\n");
        assert_eq!(HttpResponse::decode_head(&response).unwrap_err(), expected);
    }

    #[test]
    fn encode_into_reuses_the_buffer_and_matches_encode() {
        let mut buf = String::from("stale");
        for req in [
            HttpRequest::get("a.example", "/", true),
            HttpRequest::get("b.example", "/x", false),
        ] {
            req.encode_into(&mut buf);
            assert_eq!(buf, req.encode());
        }
        for resp in [
            HttpResponse::ok(24_000),
            HttpResponse::redirect(302, "http://b.example/"),
        ] {
            resp.encode_head_into(&mut buf);
            assert_eq!(buf, resp.encode_head());
        }
    }
}
