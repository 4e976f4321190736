//! Deterministic simulation substrate.
//!
//! Every random draw and fault episode in the reproduction comes from here:
//!
//! * [`rng`] — a self-contained, fully deterministic random number generator
//!   (splitmix64-seeded xoshiro256++) with *hierarchical stream forking*, so
//!   that e.g. client 17's DNS noise stream is identical no matter how many
//!   threads the experiment runner uses or in which order clients run.
//! * [`timeline`] — piecewise-constant state timelines with O(log n) queries,
//!   used to materialize fault episodes ahead of the transaction simulation.
//! * [`process`] — stochastic processes: exponential/Pareto on-off fault
//!   (Gilbert) processes with bounded episode durations, and Poisson event
//!   streams.
//!
//! The design follows the "simulation first" discipline: no wall-clock time,
//! no OS randomness, no threads inside the substrate; parallelism, where
//! used, is sharded *between* independent deterministic streams.

pub mod process;
pub mod rng;
pub mod timeline;

pub use process::{OnOffProcess, PoissonProcess};
pub use rng::SimRng;
pub use timeline::Timeline;
