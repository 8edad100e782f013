//! # abacus-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§VI) on the scaled-down dataset analogs.
//!
//! Each `benches/*.rs` target is a thin `main` that calls one experiment
//! function from [`experiments`] and prints the resulting Markdown table, so
//! `cargo bench --workspace` reproduces the full evaluation.  The library part
//! holds the shared plumbing:
//!
//! * [`settings`] — experiment knobs (trial counts, sample sizes, thread
//!   sweeps) with environment-variable overrides,
//! * [`datasets`] — cached dataset/stream/ground-truth preparation,
//! * [`runners`] — timed single-run drivers for every estimator,
//! * [`experiments`] — one module per paper table/figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod experiments;
pub mod runners;
pub mod settings;

pub use settings::Settings;
