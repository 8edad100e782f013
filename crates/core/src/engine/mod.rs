//! The estimator engine: one registry that describes, builds, scales and
//! persists every butterfly estimator in the workspace.
//!
//! * [`EstimatorSpec`] — a plain, serde-able *description* of an estimator:
//!   which algorithm ([`EstimatorKind`]), the memory budget, the seed, and
//!   the PARABACUS tuning.  Specs are cheap `Copy` values that parse from
//!   CLI strings ([`EstimatorSpec::from_name`]) and compare.
//!   [`EstimatorSpec::build`] is the single registry turning a spec into a
//!   live `Box<dyn ButterflyCounter + Send>`: ABACUS, PARABACUS, LOCAL,
//!   FLEET, CAS, or EXACT.
//! * [`Ensemble`] — K replicas built from seed-derived specs and run as one
//!   estimator: [`EnsembleMode`] decides which replicas take each element
//!   and how their estimates merge, a replica that panics is quarantined
//!   while the rest keep serving, and chunks fan out over worker threads
//!   without changing a bit of the result.
//! * [`Checkpointer`] — durability for one estimator: a run manifest, an
//!   `ABWL1` write-ahead log and `ABSNAP1` snapshots, with bit-exact resume.
//! * [`EnsembleSupervisor`] — a durable ensemble: one checkpointer per
//!   replica plus an ensemble-level log, run in the same replica set as
//!   [`Ensemble`], so a quarantined replica can rejoin bit-exactly.
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
