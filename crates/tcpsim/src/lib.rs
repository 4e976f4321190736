//! A connection-level TCP model that reports what the client's capture
//! sees.
//!
//! The paper's clients record a tcpdump/windump trace of every transaction
//! and read two things from it (Section 3.5): the TCP failure sub-class
//! (*no connection* / *no response* / *partial response*) and the number of
//! retransmitted packets. [`connection`] simulates one TCP connection — the
//! SYN handshake with the retransmission/backoff schedule, request
//! transmission, and a lossy windowed data transfer governed by the
//! measurement client's 60-second idle rule — against a ground-truth
//! [`ServerBehavior`] and [`PathQuality`], and returns one account of it,
//! a [`ConnectionResult`]. Its outcome reads only which packets reached the
//! client-side capture point (a SYN-ACK, response data, the orderly close),
//! never the server's behaviour, and its visible retransmission count is
//! the duplicates that point sees, which under-counts the sender's as a
//! real client-side capture does.

pub mod connection;

pub use connection::{simulate_connection, ConnectionResult, PathQuality, ServerBehavior};
