//! # abacus
//!
//! Streaming butterfly counting for **fully dynamic** bipartite graph streams
//! — a Rust reproduction of *"Counting Butterflies in Fully Dynamic Bipartite
//! Graph Streams"* (ICDE 2024).
//!
//! This meta-crate re-exports the workspace's public surface so applications
//! can depend on a single crate:
//!
//! * [`graph`] — dynamic bipartite graphs, exact butterfly counting,
//! * [`stream`] — the fully dynamic stream model, deletion injection,
//!   synthetic dataset analogs, and the pull-based `ElementSource` ingestion
//!   pipeline (text + `ABST1` binary formats) for bounded-memory streaming
//!   from disk,
//! * [`sampling`] — Random Pairing, reservoir and adaptive Bernoulli
//!   sampling policies,
//! * [`core`] — the ABACUS and PARABACUS estimators plus the exact oracle,
//! * [`baselines`] — the insert-only FLEET and CAS baselines,
//! * [`metrics`] — evaluation metrics and result tables.
//!
//! ## Quick start
//!
//! ```
//! use abacus::prelude::*;
//!
//! // A tiny fully dynamic stream: build a 2x3 biclique, then delete one edge.
//! let mut stream: Vec<StreamElement> = Vec::new();
//! for l in 0..2u32 {
//!     for r in 0..3u32 {
//!         stream.push(StreamElement::insert(Edge::new(l, r)));
//!     }
//! }
//! stream.push(StreamElement::delete(Edge::new(0, 2)));
//!
//! // ABACUS with a budget that covers the stream is exact.
//! let mut abacus = Abacus::new(AbacusConfig::new(16).with_seed(42));
//! abacus.process_stream(&stream);
//! assert_eq!(abacus.estimate(), 1.0); // K_{2,3} has 3 butterflies; deleting (0,2) leaves 1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use abacus_baselines as baselines;
pub use abacus_core as core;
pub use abacus_graph as graph;
pub use abacus_metrics as metrics;
pub use abacus_sampling as sampling;
pub use abacus_stream as stream;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use abacus_baselines::{Cas, CasConfig, Fleet, FleetConfig};
    pub use abacus_core::{
        Abacus, AbacusConfig, ButterflyCounter, Circuit, Ensemble, EnsembleMode, EnsembleSummary,
        EstimatorKind, EstimatorSpec, ExactCounter, LocalAbacus, ParAbacus, ParAbacusConfig,
        SnapshotMode, ViewKind, WindowedMonitor,
    };
    pub use abacus_graph::{count_butterflies, BipartiteGraph, Edge, GraphStatistics};
    pub use abacus_metrics::{relative_error, relative_error_percent, Throughput};
    pub use abacus_sampling::{derive_seed, RandomPairing, ReservoirSampler};
    pub use abacus_stream::{
        final_graph, inject_deletions_fast, open_path_source, read_all, Dataset, DeletionConfig,
        EdgeDelta, ElementSource, GraphStream, StreamElement,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_working_pipeline() {
        let stream = Dataset::MovielensLike.stream(0.2, 0);
        assert!(stream.len() > 10_000);
        let mut abacus = Abacus::new(AbacusConfig::new(1_000).with_seed(0));
        abacus.process_stream(&stream[..5_000]);
        assert!(abacus.estimate().is_finite());
    }
}
