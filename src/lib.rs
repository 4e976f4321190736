//! Umbrella crate for the end-to-end web access failure study.
//!
//! Re-exports the workspace's public surface so examples and integration
//! tests can depend on one crate:
//!
//! * [`model`] — shared vocabulary (time, ids, failure taxonomy, records);
//! * [`netsim`] — deterministic RNG, timelines, fault processes;
//! * [`dnswire`] / [`dnssim`] — RFC 1035 codec and the simulated resolver;
//! * [`tcpsim`] / [`httpsim`] — connection model and HTTP semantics;
//! * [`bgpsim`] — the Routeviews-style feed and its cleaning;
//! * [`webclient`] — the wget-like measurement client;
//! * [`workload`] — the paper's fleet, sites, fault model, and runner;
//! * [`netprofiler`] — the failure-classification framework;
//! * [`report`] — table/figure rendering.
//!
//! Quickest start:
//!
//! ```no_run
//! use workload::{run_experiment, ExperimentConfig};
//! let out = run_experiment(&ExperimentConfig::quick(42));
//! let analysis = netprofiler::Analysis::with_defaults(&out.dataset);
//! println!("{:?}", netprofiler::blame::table5(&analysis));
//! ```

pub use bgpsim;
pub use dnssim;
pub use dnswire;
pub use httpsim;
pub use model;
pub use netprofiler;
pub use netsim;
pub use report;
pub use tcpsim;
pub use webclient;
pub use workload;
