//! Simulated DNS resolution.
//!
//! Models the full resolution path a web client exercises (Section 2.1 of
//! the paper): a stub resolver on the client queries its **local DNS server
//! (LDNS)**, which resolves iteratively through a simulated zone hierarchy
//! (root → TLD → authoritative). Answers come from the zones; with
//! [`ResolverConfig::wire_fidelity`] on, every query and response is also
//! written through the `dnswire` RFC 1035 codec and the answer read back is
//! checked against the zones', so the simulated traffic is real DNS wire
//! data. The switch changes what a run costs, never its dataset: messages
//! are numbered by the resolver, not drawn from the simulation RNG.
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
//! The iterative dig ([`StubResolver::dig_iterative`]) reproduces the
//! paper's validation step 3 ("use iterative dig to traverse the DNS
//! hierarchy" after every access) with the same walk a lookup runs past the
//! LDNS.

mod dig;
pub mod faults;
pub mod resolver;
pub mod server;
pub mod zones;

pub use faults::{DnsFaults, NoFaults};
pub use resolver::{LdnsCache, ResolutionStatus, ResolverConfig, StubResolver};
pub use zones::{Zone, ZoneTree};
