//! # abacus-metrics
//!
//! Evaluation metrics and reporting utilities shared by the experiment
//! harness:
//!
//! * [`error`] — relative / absolute error between an estimate and the ground
//!   truth (the accuracy metric of §VI),
//! * [`throughput`] — edges-per-second throughput measurements,
//! * [`summary`] — mean / standard deviation / min / max over repeated trials,
//! * [`stats`] — the per-run work counters every estimator accumulates
//!   (elements, discoveries, set-intersection probes),
//! * [`table`] — Markdown and CSV table rendering used by every experiment
//!   binary to print paper-shaped result tables,
//! * [`anomaly`] — the windowed estimate series with burst detection shared
//!   by the `WindowedMonitor` wrapper and the delta-circuit anomaly view,
//! * [`health`] — ensemble health/degradation reporting (quarantine records
//!   and the degraded-serving summary line).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anomaly;
pub mod error;
pub mod health;
pub mod stats;
pub mod summary;
pub mod table;
pub mod throughput;

pub use anomaly::{AnomalySeries, WindowSnapshot};
pub use error::{absolute_error, relative_error, relative_error_percent};
pub use health::{HealthReport, QuarantineRecord};
pub use stats::ProcessingStats;
pub use summary::Summary;
pub use table::Table;
pub use throughput::Throughput;
