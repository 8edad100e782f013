//! The estimator engine: one registry that describes, builds, and scales
//! every butterfly estimator in the workspace.
//!
//! Before this layer existed, each front end (the CLI's `run` command, its
//! `accuracy` command, the bench harness's runners) carried a private
//! algorithm enum and a private `match` that constructed estimators — three
//! copies of the same factory, each of which every new tuning knob had to be
//! threaded through.  The engine collapses them into:
//!
//! * [`EstimatorSpec`] — a plain, serde-able *description* of an estimator:
//!   which algorithm ([`EstimatorKind`]), the memory budget, the seed, and
//!   the PARABACUS tuning.  Specs are cheap `Copy` values
//!   that can be parsed from CLI strings ([`EstimatorSpec::from_name`]),
//!   stored in experiment configs, and compared.
//! * [`EstimatorSpec::build`] — the single registry turning a spec into a
//!   live `Box<dyn ButterflyCounter + Send>`, covering ABACUS, PARABACUS,
//!   LOCAL, FLEET, CAS, and EXACT.
//! * [`Ensemble`] — the horizontal-scaling layer on top of the registry:
//!   K independent replicas built from seed-derived specs, fed in parallel
//!   over the pull-based staging path and merged into one estimate
//!   ([`EnsembleMode::Replicate`] averages full-stream replicas,
//!   [`EnsembleMode::Partition`] shards the stream and sums per-shard
//!   counts).
//!
//! The registry can construct the insert-only baselines because the
//! `ButterflyCounter` trait, the sample store, and the work counters live
//! *below* both this crate and `abacus-baselines` (in `abacus-stream`,
//! `abacus-sampling`, and `abacus-metrics` respectively) — the baselines do
//! not depend on `abacus-core`, so this crate can depend on them.

pub mod checkpoint;
mod ensemble;
mod error;
mod spec;
pub mod supervisor;

pub use checkpoint::{Checkpointer, Recovery, RunManifest};
pub use ensemble::{Ensemble, EnsembleMode, EnsembleSummary};
pub(crate) use error::panic_message;
pub use error::{EngineError, ReplicaError};
pub use spec::{EstimatorKind, EstimatorSpec};
pub use supervisor::{EnsembleSupervisor, ReplicaRecovery, SupervisorRecovery};
