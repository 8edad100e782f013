//! # abacus-sampling
//!
//! Bounded-memory sampling schemes for data streams, decoupled from what the
//! sample physically stores:
//!
//! * [`store`] — the [`SampleStore`] trait (ABACUS stores its sample as a
//!   graph, the baselines as edge reservoirs, tests as plain vectors) plus a
//!   reference [`VecSampleStore`],
//! * [`sample_graph`] — [`SampleGraph`], the graph-backed [`SampleStore`]:
//!   a bounded edge sample organised as a bipartite graph with adjacency
//!   sets, shared by ABACUS/PARABACUS and the reservoir baselines,
//! * [`seed`] — [`derive_seed`], the splitmix-style per-replica seed
//!   derivation used by ensemble estimators,
//! * [`random_pairing`] — Random Pairing (Gemulla et al., VLDB J. 2008), the
//!   scheme ABACUS uses to keep a *uniform* bounded sample under both
//!   insertions and deletions (Algorithm 2 of the paper),
//! * [`reservoir`] — classic reservoir sampling (Vitter 1985), uniform for
//!   insert-only streams and the reason insert-only baselines break under
//!   deletions,
//! * [`adaptive`] — the FLEET-style adaptive Bernoulli policy with reservoir
//!   resizing (γ).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod random_pairing;
pub mod reservoir;
pub mod sample_graph;
pub mod seed;
pub mod store;

pub use adaptive::AdaptiveBernoulli;
pub use random_pairing::{RandomPairing, RandomPairingState};
pub use reservoir::ReservoirSampler;
pub use sample_graph::SampleGraph;
pub use seed::{derive_seed, splitmix64};
pub use store::{SampleStore, VecSampleStore};
