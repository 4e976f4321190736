//! HTTP object model for the simulated web measurement.
//!
//! Three pieces:
//!
//! * [`message`] — a small, hardened HTTP/1.1 text codec (request line,
//!   status line, headers, `Content-Length` framing). The simulated clients
//!   and origins exchange real header bytes, including the
//!   `Cache-Control: no-cache` request directive the paper's corporate
//!   clients set to punch through their proxies. Requests and responses
//!   borrow their strings, so a hop builds, encodes (into a reused buffer)
//!   and decodes its heads without allocating.
//! * [`origin`] — origin-server semantics: index-object responses, redirect
//!   chains (the reason connection counts exceed transaction counts in
//!   Table 3), and HTTP error statuses. An answer borrows the origin's own
//!   strings; each redirect's `Location` is written once, when the origin
//!   is built.
//! * [`semantics`] — status-code classification helpers.
//!
//! TCP-level behaviour (whether the connection works at all) lives in
//! `tcpsim`; this crate only decides *what* a reachable origin says.
//!
//! ```
//! use httpsim::{HttpRequest, HttpResponse, Origin};
//! use netsim::SimRng;
//!
//! let origin = Origin::simple("www.example.com", 24_000)
//!     .with_redirects(vec!["example.com".to_string()]);
//! let mut head = String::new(); // reused for every head
//!
//! let request = HttpRequest::get("example.com", "/", true);
//! request.encode_into(&mut head);
//! assert_eq!(HttpRequest::decode(&head), Ok(request));
//!
//! let answer = origin.respond("example.com", &request, &mut SimRng::new(1));
//! assert_eq!(answer.next_host, Some("www.example.com"));
//! answer.response.encode_head_into(&mut head);
//! let decoded = HttpResponse::decode_head(&head).unwrap();
//! assert_eq!(decoded.redirect_target(), Some("http://www.example.com/"));
//! ```

pub mod message;
pub mod origin;
pub mod semantics;

pub use message::{HttpError, HttpRequest, HttpResponse};
pub use origin::{Origin, OriginAnswer};
pub use semantics::{is_client_error, is_redirect, is_server_error, is_success, StatusClass};
