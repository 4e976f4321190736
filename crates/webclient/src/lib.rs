//! The measurement client.
//!
//! Reproduces the paper's download procedure (Section 3.4) for one client:
//!
//! 1. flush the local DNS cache (implicit — only the LDNS cache persists),
//! 2. wget-like download of the URL's index object: resolve, connect (with
//!    fail-over across A records and a retry pass), follow redirects, apply
//!    the 60-second idle rule,
//! 3. iterative dig through the hierarchy (run on DNS failure, matching how
//!    the paper *uses* the dig data),
//! 4. read each connection's TCP failure sub-class and retransmission count
//!    from what its packet capture shows (PL/DU clients; BB ran without
//!    captures, so its records keep only wget's coarse view).
//!
//! Corporate (CN) clients instead speak to their caching proxy, which does
//! its own name resolution, never fails over across replica addresses
//! (Section 4.7's shared proxy defect), and masks the upstream failure
//! detail: it returns only the status the client sees.
//!
//! The output is the dataset's own records (Section 3.5): a
//! [`ClientSession`], built with its client's id, appends each connect's
//! [`model::ConnectionRecord`] to the vector its caller passes and returns
//! each access's [`model::PerformanceRecord`] with every field set.

pub mod env;
pub mod proxy;
pub mod session;

pub use env::AccessEnvironment;
pub use proxy::ProxySession;
pub use session::{ClientSession, WgetConfig};
