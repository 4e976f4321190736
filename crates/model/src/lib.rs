//! Shared vocabulary for the end-to-end web access failure study.
//!
//! This crate defines the types that every other crate in the workspace
//! speaks: simulated time, entity identifiers, the failure taxonomy from
//! Section 2.1 of the paper, the per-transaction and per-connection
//! measurement records produced by the simulated clients, and the [`Dataset`]
//! container that the analysis framework (`netprofiler`) consumes.
//!
//! It deliberately carries no behaviour beyond small, heavily-tested helpers
//! (prefix arithmetic, hourly binning, taxonomy accessors) so that the
//! substrate crates (`netsim`, `dnssim`, `tcpsim`, ...) and the analysis crate
//! can evolve independently.

pub mod bgp;
pub mod columnar;
pub mod dataset;
pub mod failure;
pub mod fnv;
pub mod ids;
pub mod net;
pub mod provenance;
pub mod records;
pub mod time;
pub mod trace;

pub use bgp::{BgpHourly, BgpHourlySeries};
pub use columnar::{ColumnarDataset, MemoryFootprint, TxnBlameHint};
pub use dataset::{ClientMeta, Dataset, SiteMeta};
pub use failure::{DnsErrorCode, DnsFailureKind, FailureClass, TcpFailureKind};
pub use fnv::{fingerprint, Fnv};
pub use ids::{ClientCategory, ClientId, PrefixId, ProxyId, SiteCategory, SiteId};
pub use net::Ipv4Prefix;
pub use provenance::{
    FaultSet, ProvenanceLog, ProvenanceRecord, TrueBlame, TruthSidecar, ARCHETYPES,
};
pub use records::{ConnectionRecord, DigOutcome, PerformanceRecord, TransactionOutcome};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEvent, TraceExemplar, TxnTrace};

/// Resolve a thread-count knob: `0` means all available cores (one when
/// the count cannot be read), anything else is taken as given. The
/// simulation runner and the analysis scans both resolve theirs here.
pub fn thread_count(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn thread_count_zero_is_all_cores() {
        assert!(super::thread_count(0) >= 1);
        assert_eq!(super::thread_count(3), 3);
    }
}
