//! # abacus-graph
//!
//! Dynamic bipartite graph substrate and exact butterfly counting used by the
//! ABACUS / PARABACUS reproduction.
//!
//! A *butterfly* is a 2×2 biclique: two left vertices `u, w` and two right
//! vertices `v, x` connected by the four edges `(u,v)`, `(u,x)`, `(w,v)`,
//! `(w,x)`.  This crate provides everything that is needed to reason about
//! butterflies on a concrete in-memory graph:
//!
//! * [`BipartiteGraph`] — a fully dynamic (insert *and* delete) adjacency-list
//!   bipartite graph,
//! * [`exact`] — exact butterfly counting (global, per-vertex, per-edge),
//! * [`peredge`] — the per-edge butterfly counting kernel shared by the exact
//!   oracle, ABACUS, and the FLEET baseline (Algorithm 1, lines 7–11 of the
//!   paper),
//! * [`intersect`] — set-intersection primitives with comparison accounting
//!   (used for the load-balance experiment, Fig. 10): the probe kernel over
//!   adjacency sets and the adaptive sorted-slice kernels of the CSR
//!   snapshot (two-pointer merge / galloping search),
//! * [`csr`] — the frozen CSR counting snapshot the estimators intersect
//!   against in their per-edge hot loop,
//! * [`fxhash`] — a fast, DoS-insensitive hasher for integer keys (the
//!   `rustc-hash` algorithm re-implemented locally),
//! * [`persist`] — the persistence primitives (typed errors, CRC32, the
//!   little-endian binary codec) shared by the durable snapshot and WAL
//!   formats up the crate stack,
//! * [`stats`] — the dataset statistics reported in Table II of the paper.
//!
//! The crate is deliberately free of any sampling or streaming logic; those
//! live in `abacus-sampling`, `abacus-stream` and `abacus-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjacency;
pub mod bipartite;
pub mod bitruss;
pub mod clustering;
pub mod csr;
pub mod edge;
pub mod exact;
pub mod fxhash;
pub mod intersect;
pub mod peredge;
pub mod persist;
pub mod stats;
pub mod vertex;

pub use adjacency::AdjacencySet;
pub use bipartite::BipartiteGraph;
pub use bitruss::{bitruss_decomposition, peel_from_supports, BitrussDecomposition, BitrussState};
pub use clustering::{butterfly_clustering_coefficient, count_caterpillars, ClusteringState};
pub use csr::CsrSnapshot;
pub use edge::{Edge, EdgeKey};
pub use exact::{count_butterflies, count_butterflies_per_left_vertex, ExactCounts};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use peredge::{
    cheapest_side, count_butterflies_with_edge, for_each_butterfly_with_edge, EdgeSupports,
    NeighborhoodView, PerEdgeCount,
};
pub use persist::{crc32, Crc32, Decoder, Encoder, PersistError};
pub use stats::GraphStatistics;
pub use vertex::{Side, VertexButterflyCounts, VertexRef};
