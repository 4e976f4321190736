//! Simulated DNS resolution.
//!
//! Models the full resolution path a web client exercises (Section 2.1 of
//! the paper): a stub resolver on the client queries its **local DNS server
//! (LDNS)**, which resolves iteratively through a simulated zone hierarchy
//! (root → TLD → authoritative). Every query and response is round-tripped
//! through the `dnswire` RFC 1035 codec (configurable off for very large
//! runs), so the simulated traffic is real DNS wire data.
//!
//! Fault injection enters through the [`DnsFaults`] trait: the experiment's
//! ground-truth fault model answers "is the client's access link up?", "is
//! the LDNS up?", "are the authoritative servers for zone Z reachable?", and
//! "is zone Z misconfigured (SERVFAIL/NXDOMAIN)?" at any instant. The
//! resolver turns those into exactly the observable failure classes the
//! paper's taxonomy uses:
//!
//! * **LDNS timeout** — link or LDNS down: the stub's retries go unanswered;
//! * **non-LDNS timeout** — LDNS responsive but an authoritative server
//!   below it unreachable;
//! * **error response** — NXDOMAIN/SERVFAIL from broken authoritative
//!   configuration.
//!
//! The iterative [`dig`] walker reproduces the paper's validation step 3
//! ("use iterative dig to traverse the DNS hierarchy" after every access).

pub mod dig;
pub mod faults;
pub mod resolver;
pub mod server;
pub mod zones;

pub use dig::{dig_iterative, DigResult};
pub use faults::{DnsFaults, NoFaults};
pub use resolver::{LdnsCache, ResolutionStatus, ResolverConfig, StubResolver};
pub use server::AnswerKind;
pub use zones::{Zone, ZoneTree};
