//! `oracle` — naive reference analyses and the differential checker.
//!
//! The optimized pipeline in `netprofiler` shards every scan into partial
//! aggregates merged across threads — exactly the kind of code that can
//! silently drift from the paper's semantics at merge boundaries and
//! degenerate inputs. This crate re-implements every headline stage the
//! slow, obviously-correct way: one single-threaded loop per stage, sparse
//! `BTreeMap` accumulators, no sharding, no scratch-buffer reuse, no merge
//! steps — written straight from the paper's definitions.
//!
//! [`naive::analyze`] produces the full artifact set; [`diff`] makes the
//! optimized calls the report's renderers make, on one shared index, and
//! reports **field-level** mismatches.
//! Equality is exact: counters must match as integers and derived rates
//! bit-for-bit (both sides compute each rate as one division of identical
//! integer operands, so IEEE 754 guarantees identical results — any
//! difference is a real divergence, not float noise).
//!
//! The types of the artifacts are shared with `netprofiler` — they are
//! passive data carriers — but every *computation* here is independent.
//!
//! [`gen::property_dataset`] generates small adversarial datasets (empty
//! hours, single-sample cells, all-failure entities, duplicate rates,
//! month-boundary timestamps) so the differential harness probes the edge
//! cases a simulated reproduction rarely hits.

pub mod diff;
pub mod gen;
pub mod naive;

pub use diff::{check_audit, check_dataset, check_dataset_with_oracle, DiffReport};
pub use naive::{analyze, OracleArtifacts};
