//! A minimal HTTP/1.1 text codec.
//!
//! Supports exactly what the measurement exchanges: `GET` requests with
//! `Host`, `User-Agent` and cache-control headers, and responses with a
//! status line, `Content-Length`, and an optional `Location`. Parsing is
//! hardened: header count and line lengths are bounded, and malformed input
//! yields typed errors rather than panics.

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

/// An HTTP request (headers only; the measurement sends no bodies).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpRequest {
    pub method: String,
    pub path: String,
    pub headers: Vec<(String, String)>,
}

impl HttpRequest {
    /// The measurement's standard request: `GET path` with `Host` and, when
    /// `no_cache` is set, the `Cache-Control: no-cache` directive (Section
    /// 3.4: CN clients force origin fetches through their proxies).
    pub fn get(host: &str, path: &str, no_cache: bool) -> HttpRequest {
        let mut headers = vec![
            ("Host".to_string(), host.to_string()),
            ("User-Agent".to_string(), "wget-sim/0.1".to_string()),
        ];
        if no_cache {
            headers.push(("Cache-Control".to_string(), "no-cache".to_string()));
            headers.push(("Pragma".to_string(), "no-cache".to_string()));
        }
        HttpRequest {
            method: "GET".to_string(),
            path: path.to_string(),
            headers,
        }
    }

    /// First value of a header, case-insensitive name match.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_lookup(&self.headers, name)
    }

    /// Does this request carry the no-cache directive?
    pub fn is_no_cache(&self) -> bool {
        self.header("Cache-Control")
            .map(|v| v.to_ascii_lowercase().contains("no-cache"))
            .unwrap_or(false)
            || self
                .header("Pragma")
                .map(|v| v.to_ascii_lowercase().contains("no-cache"))
                .unwrap_or(false)
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
        write!(out, "{} {} HTTP/1.1\r\n", self.method, self.path)
            .expect("formatting into a String cannot fail");
        push_headers(out, &self.headers);
    }

    /// Parse from wire text.
    pub fn decode(text: &str) -> Result<HttpRequest, HttpError> {
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
        let headers = parse_headers(text, lines)?;
        Ok(HttpRequest {
            method: method.to_string(),
            path: path.to_string(),
            headers,
        })
    }
}

/// An HTTP response (body represented by its length — the measurement only
/// needs sizes, not content).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpResponse {
    pub status: u16,
    pub reason: String,
    pub headers: Vec<(String, String)>,
    pub body_len: u64,
}

impl HttpResponse {
    /// A 200 response carrying an index object of `body_len` bytes.
    pub fn ok(body_len: u64) -> HttpResponse {
        HttpResponse {
            status: 200,
            reason: "OK".to_string(),
            headers: vec![("Content-Length".to_string(), body_len.to_string())],
            body_len,
        }
    }

    /// A redirect to `location`.
    pub fn redirect(status: u16, location: &str) -> HttpResponse {
        debug_assert!((300..400).contains(&status));
        HttpResponse {
            status,
            reason: "Redirect".to_string(),
            headers: vec![
                ("Location".to_string(), location.to_string()),
                ("Content-Length".to_string(), "0".to_string()),
            ],
            body_len: 0,
        }
    }

    /// An error status response.
    pub fn error(status: u16, reason: &str) -> HttpResponse {
        HttpResponse {
            status,
            reason: reason.to_string(),
            headers: vec![("Content-Length".to_string(), "0".to_string())],
            body_len: 0,
        }
    }

    pub fn header(&self, name: &str) -> Option<&str> {
        header_lookup(&self.headers, name)
    }

    /// The redirect target, if this is a redirect with a Location header.
    pub fn location(&self) -> Option<&str> {
        if (300..400).contains(&self.status) {
            self.header("Location")
        } else {
            None
        }
    }

    /// Declared content length, if present and numeric.
    pub fn content_length(&self) -> Option<u64> {
        self.header("Content-Length").and_then(|v| v.parse().ok())
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
        push_headers(out, &self.headers);
    }

    /// Parse a response head; `body_len` is taken from Content-Length
    /// (0 when absent).
    pub fn decode_head(text: &str) -> Result<HttpResponse, HttpError> {
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
        let headers = parse_headers(text, lines)?;
        let body_len = header_lookup(&headers, "Content-Length")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        Ok(HttpResponse {
            status,
            reason: reason.to_string(),
            headers,
            body_len,
        })
    }
}

/// Append header lines and the blank line that ends a head.
fn push_headers(out: &mut String, headers: &[(String, String)]) {
    for (k, v) in headers {
        for part in [k, ": ", v, "\r\n"] {
            out.push_str(part);
        }
    }
    out.push_str("\r\n");
}

fn parse_headers<'a>(
    text: &str,
    lines: impl Iterator<Item = &'a str>,
) -> Result<Vec<(String, String)>, HttpError> {
    // Splitting on "\r\n" makes any trailing CRLF look like a blank line;
    // the real head terminator is an empty *line*, i.e. "\r\n\r\n".
    if !text.contains("\r\n\r\n") {
        return Err(HttpError::Truncated);
    }
    let mut headers = Vec::new();
    let mut terminated = false;
    for line in lines {
        if line.is_empty() {
            terminated = true;
            break;
        }
        if line.len() > MAX_LINE_LEN {
            // Quote the first 64 bytes, cut back to a character boundary.
            return Err(HttpError::BadHeader(
                line[..line.floor_char_boundary(64)].to_string(),
            ));
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooManyHeaders);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadHeader(line.to_string()))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::BadHeader(line.to_string()));
        }
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }
    if !terminated {
        return Err(HttpError::Truncated);
    }
    Ok(headers)
}

fn header_lookup<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
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
        assert_eq!(decoded.header("host"), Some("www.example.com"));
        assert!(decoded.is_no_cache());
    }

    #[test]
    fn request_without_no_cache() {
        let req = HttpRequest::get("example.org", "/index.html", false);
        assert!(!req.is_no_cache());
        assert_eq!(req.header("Cache-Control"), None);
    }

    #[test]
    fn response_roundtrip() {
        let resp = HttpResponse::ok(24_000);
        let text = resp.encode_head();
        let decoded = HttpResponse::decode_head(&text).unwrap();
        assert_eq!(decoded.status, 200);
        assert_eq!(decoded.content_length(), Some(24_000));
        assert_eq!(decoded.body_len, 24_000);
        assert_eq!(decoded.location(), None);
    }

    #[test]
    fn redirect_location() {
        let resp = HttpResponse::redirect(302, "http://www.example.com/");
        assert_eq!(resp.location(), Some("http://www.example.com/"));
        let text = resp.encode_head();
        let decoded = HttpResponse::decode_head(&text).unwrap();
        assert_eq!(decoded.location(), Some("http://www.example.com/"));
    }

    #[test]
    fn location_ignored_on_non_redirect() {
        let mut resp = HttpResponse::ok(10);
        resp.headers.push(("Location".to_string(), "/x".to_string()));
        assert_eq!(resp.location(), None);
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
    fn header_lookup_is_case_insensitive() {
        let resp = HttpResponse::ok(5);
        assert_eq!(resp.header("content-length"), Some("5"));
        assert_eq!(resp.header("CONTENT-LENGTH"), Some("5"));
        assert_eq!(resp.header("nope"), None);
    }

    #[test]
    fn missing_content_length_defaults_zero() {
        let decoded = HttpResponse::decode_head("HTTP/1.1 204 No Content\r\n\r\n").unwrap();
        assert_eq!(decoded.body_len, 0);
        assert_eq!(decoded.content_length(), None);
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
