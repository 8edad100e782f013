//! # abacus-core
//!
//! The paper's primary contribution: **ABACUS**, a streaming estimator of the
//! global butterfly count of a *fully dynamic* bipartite graph stream, and
//! **PARABACUS**, its mini-batch parallel variant.
//!
//! ```
//! use abacus_core::{Abacus, AbacusConfig, ButterflyCounter};
//! use abacus_stream::StreamElement;
//! use abacus_graph::Edge;
//!
//! // Estimate butterflies over a small fully dynamic stream.
//! let mut abacus = Abacus::new(AbacusConfig::new(64).with_seed(7));
//! abacus.process(StreamElement::insert(Edge::new(0, 10)));
//! abacus.process(StreamElement::insert(Edge::new(0, 11)));
//! abacus.process(StreamElement::insert(Edge::new(1, 10)));
//! abacus.process(StreamElement::insert(Edge::new(1, 11)));
//! assert_eq!(abacus.estimate(), 1.0); // sample holds the whole graph: exact
//! abacus.process(StreamElement::delete(Edge::new(1, 11)));
//! assert_eq!(abacus.estimate(), 0.0);
//! ```
//!
//! Modules:
//!
//! * [`config`] — estimator configuration (memory budget, seed, batching),
//! * [`engine`] — the estimator registry ([`EstimatorSpec`] →
//!   [`ButterflyCounter`]), the sharded [`Ensemble`] execution layer, and
//!   the durable [`Checkpointer`] (versioned snapshots + WAL recovery),
//! * [`counter`] — re-export of the [`ButterflyCounter`] trait (defined in
//!   `abacus_stream`, the stream-consumer interface shared by every
//!   estimator: ABACUS, PARABACUS, the exact oracle, FLEET, CAS, ensembles),
//! * [`sample_graph`] — re-export of the bounded sample stored as a
//!   bipartite graph (defined in `abacus_sampling` next to the policies
//!   that drive it),
//! * [`probability`] — the butterfly-discovery probability of Eq. 1 and the
//!   reciprocal-increment rule,
//! * [`abacus`] — Algorithm 1, and the replica of ABACUS's sampler state
//!   (sample, Random Pairing, RNG) that ABACUS, LOCAL and PARABACUS share,
//! * [`circuit`] — the incremental multi-view delta circuit: one ingest
//!   fanned out to N bit-exact live views (per-edge supports, per-vertex
//!   counts, clustering coefficient, bitruss tiers, anomaly windows),
//! * [`exact`] — the exact streaming oracle (unbounded memory, ground truth),
//! * [`parabacus`] — mini-batch parallel processing as lock-step ABACUS
//!   replicas, each counting one chunk of every batch,
//! * [`stats`] — re-export of the per-run processing statistics (defined in
//!   `abacus_metrics`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abacus;
pub mod circuit;
pub mod config;
pub mod engine;
pub mod exact;
pub mod local;
#[cfg(test)]
mod monitor;
pub mod parabacus;
mod persist;
pub mod probability;

// The trait, the sample store, and the work counters moved down the crate
// stack (stream / sampling / metrics) so the insert-only baselines no longer
// depend on this crate — which lets the engine registry here construct
// *every* estimator in the workspace, baselines included.  The original
// module paths stay valid through these re-exports.
pub use abacus_metrics::stats;
pub use abacus_sampling::sample_graph;
pub use abacus_stream::counter;

pub use abacus::Abacus;
pub use circuit::{Circuit, ViewKind};
pub use config::{AbacusConfig, ParAbacusConfig, SnapshotMode};
pub use counter::ButterflyCounter;
pub use engine::{
    Checkpointer, EngineError, Ensemble, EnsembleMode, EnsembleSummary, EnsembleSupervisor,
    EstimatorKind, EstimatorSpec, Recovery, ReplicaError, ReplicaRecovery, RunManifest,
    SupervisorRecovery,
};
pub use exact::ExactCounter;
pub use local::LocalAbacus;
pub use parabacus::{ParAbacus, PhaseTimings};
pub use probability::{discovery_probability, increment, variance_upper_bound};
pub use sample_graph::SampleGraph;
pub use stats::ProcessingStats;
