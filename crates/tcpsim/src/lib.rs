//! A connection-level TCP model with packet traces.
//!
//! The paper's clients record a tcpdump/windump trace of every transaction
//! and post-process it to (a) classify TCP connection failures as *no
//! connection* / *no response* / *partial response* and (b) count packet
//! retransmissions (Section 3.5). This crate reproduces both sides:
//!
//! * [`connection`] simulates one TCP connection — the SYN handshake with
//!   the retransmission/backoff schedule, request transmission, and a lossy
//!   windowed data transfer governed by the measurement client's 60-second
//!   idle rule — against a ground-truth [`ServerBehavior`] and
//!   [`PathQuality`], and emits the packet trace;
//! * [`trace`] post-processes a trace exactly the way the paper does,
//!   *without* access to the ground truth: the failure sub-class is inferred
//!   from which packets appear, and the loss count from duplicate sequence
//!   numbers.
//!
//! The unit tests cross-validate the two: for every simulated failure the
//! trace-derived classification must equal the ground-truth outcome.

pub mod connection;
pub mod packet;
pub mod trace;

pub use connection::{simulate_connection_into, ConnectionResult, PathQuality, ServerBehavior};
pub use packet::{Direction, PacketKind, Trace, TracePacket};
pub use trace::{classify_trace, count_retransmissions, TraceVerdict};
