//! Experiment configuration and the ground-truth world.
//!
//! This crate owns everything the paper's Section 3 describes:
//!
//! * [`clients`] — the measurement fleet of Table 1: 95 PlanetLab nodes
//!   across 64 sites (with the co-location structure the similarity
//!   analysis needs), 26 dialup "virtual" clients, 5 proxied corporate
//!   clients plus SEAEXT, and 7 broadband clients — 134 effective clients;
//! * [`sites`] — the 80 target websites of Table 2 with their replica
//!   layouts (6 CDN-served, 42 single-replica, 32 multi-replica mostly on
//!   one /24), index sizes and redirect chains;
//! * [`faults`] — the **ground-truth fault model**: per-client last-mile and
//!   LDNS outages, wide-area (BGP-coupled) outages, co-location-shared
//!   faults, per-server degradation episodes with heavy-tailed durations,
//!   broken-DNS zones, the 38 near-permanently blocked client–site pairs,
//!   and background transient noise — all materialized as deterministic
//!   timelines;
//! * [`view`] — per-vantage [`webclient::AccessEnvironment`] implementations
//!   that answer fault questions from those timelines;
//! * [`experiment`] — the runner: executes the month of accesses for every
//!   client (deterministically parallel across clients), generates and
//!   cleans the coupled BGP feed, and assembles the `model::Dataset`.
//!
//! Everything is derived from a single `seed`, so the entire month-long
//! "Internet" is reproducible bit-for-bit.

pub mod apparatus;
pub mod clients;
pub mod experiment;
pub mod faults;
pub mod forensics;
pub mod sites;
pub mod view;

pub use apparatus::ApparatusFaults;
pub use clients::{build_fleet, ClientSpec, FleetSpec};
pub use experiment::{run_experiment, ClientOutcome, ExperimentConfig, ExperimentOutput, RunReport};
pub use faults::{AdversarialProfile, AdversarialTruth, FaultProfile, GroundTruth};
pub use forensics::{ExemplarStore, ForensicsConfig};
pub use sites::{build_sites, ReplicaLayout, SiteSpec};
pub use view::{ClientView, ProxyView};
