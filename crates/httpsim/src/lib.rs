//! HTTP origin model for the simulated web measurement.
//!
//! Two pieces:
//!
//! * [`origin`] — origin-server semantics: index-object responses, redirect
//!   chains (the reason connection counts exceed transaction counts in
//!   Table 3), and HTTP error statuses. An origin names its hosts with
//!   parsed [`dnswire::DomainName`]s, so a request is matched by comparing
//!   wire bytes. An answer is what the record keeper keeps of a response:
//!   its status, its body length and, for a redirect, the next hop's name,
//!   borrowed from the origin, which the client resolves as it is.
//! * [`semantics`] — status-code classes.
//!
//! TCP-level behaviour (whether the connection works at all) lives in
//! `tcpsim`; this crate only decides *what* a reachable origin says.
//!
//! ```
//! use dnswire::DomainName;
//! use httpsim::{Origin, StatusClass};
//! use netsim::SimRng;
//!
//! let name = |s: &str| s.parse::<DomainName>().unwrap();
//! let origin = Origin::simple(name("www.example.com"), 24_000)
//!     .with_redirects(vec![name("example.com")]);
//! let mut rng = SimRng::new(1);
//!
//! // The bare domain redirects to the canonical host...
//! let hop = origin.respond(&name("example.com"), &mut rng);
//! assert_eq!(StatusClass::of(hop.status), StatusClass::Redirect);
//! assert_eq!(hop.next_host, Some(origin.host()));
//!
//! // ...which serves the index object: two connections for one download.
//! let index = origin.respond(origin.host(), &mut rng);
//! assert_eq!((index.status, index.body_len, index.next_host), (200, 24_000, None));
//! ```

pub mod origin;
pub mod semantics;

pub use origin::{Origin, OriginAnswer};
pub use semantics::StatusClass;
