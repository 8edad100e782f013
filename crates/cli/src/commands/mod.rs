//! The CLI subcommands.
//!
//! Every command is a pure function from parsed [`Arguments`] to the text it
//! prints, which keeps the commands unit-testable and the binary a three-line
//! `main`.

pub mod accuracy;
pub mod generate;
pub mod resume;
pub mod run;
pub mod stats;

use crate::args::Arguments;
use crate::error::CliError;
use abacus_core::engine::{Ensemble, EnsembleMode, EstimatorKind, EstimatorSpec};
use abacus_core::{ButterflyCounter, Circuit, SnapshotMode, ViewKind};
use abacus_stream::fault::{FaultPlan, ReplicaFault};
use abacus_stream::{
    open_path_source, Dataset, DatasetSpec, ElementSource, FaultySource, GraphStream, IterSource,
};

/// Parses the common estimator options (`--algorithm`, `--budget`, `--seed`,
/// `--batch`, `--threads`, `--pipeline-depth`, `--snapshot`) into an
/// [`EstimatorSpec`] — the one factory path shared by `run` and `accuracy`,
/// and by the bench harness.
///
/// Every invalid value comes back as a [`CliError::InvalidValue`] listing
/// the accepted choices; nothing in here panics on user input.
pub(crate) fn parse_estimator_spec(
    args: &Arguments,
    default_budget: usize,
) -> Result<EstimatorSpec, CliError> {
    let kind =
        EstimatorKind::parse(args.get("algorithm").unwrap_or("abacus")).map_err(|expected| {
            CliError::InvalidValue {
                option: "algorithm".to_string(),
                value: args.get("algorithm").unwrap_or_default().to_string(),
                expected,
            }
        })?;
    let budget: usize = args.parsed_or("budget", default_budget, "a positive integer")?;
    let batch: usize = args.parsed_or("batch", 500, "a positive integer")?;
    let threads: usize = args.parsed_or(
        "threads",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        "a positive integer",
    )?;
    let seed: u64 = args.parsed_or("seed", 0, "an unsigned integer")?;
    // Validated and persisted in the run manifest, but PARABACUS has every
    // batch in its estimate when `process` returns, so it has no effect.
    let pipeline_depth: usize = args.parsed_or("pipeline-depth", 2, "a positive integer")?;
    // Validated and persisted in the run manifest, with no effect: every
    // estimator counts on its sample.
    let snapshot: SnapshotMode =
        args.parsed_or("snapshot", SnapshotMode::Auto, "on, off, or auto")?;
    if budget < 2 {
        return Err(CliError::InvalidValue {
            option: "budget".to_string(),
            value: budget.to_string(),
            expected: "an integer of at least 2",
        });
    }
    if batch == 0 || threads == 0 || pipeline_depth == 0 {
        let option = if batch == 0 {
            "batch"
        } else if threads == 0 {
            "threads"
        } else {
            "pipeline-depth"
        };
        return Err(CliError::InvalidValue {
            option: option.to_string(),
            value: "0".to_string(),
            expected: "a positive integer",
        });
    }
    Ok(EstimatorSpec::new(kind, budget)
        .with_seed(seed)
        .with_batch_size(batch)
        .with_threads(threads)
        .with_pipeline_depth(pipeline_depth)
        .with_snapshot(snapshot))
}

/// Parses `--ensemble K` and `--ensemble-mode replicate|partition`.
///
/// Returns `None` when no ensemble was requested (the bare-estimator path).
/// `--ensemble 1` is accepted — it builds a one-replica ensemble, which is
/// bit-identical to the bare estimator.
pub(crate) fn parse_ensemble(args: &Arguments) -> Result<Option<(usize, EnsembleMode)>, CliError> {
    let mode = match args.get("ensemble-mode") {
        None => EnsembleMode::default(),
        Some(raw) => EnsembleMode::parse(raw).map_err(|expected| CliError::InvalidValue {
            option: "ensemble-mode".to_string(),
            value: raw.to_string(),
            expected,
        })?,
    };
    match args.get("ensemble") {
        None => {
            if args.get("ensemble-mode").is_some() {
                return Err(CliError::MissingOption(
                    "ensemble (required when --ensemble-mode is set)",
                ));
            }
            Ok(None)
        }
        Some(raw) => {
            let replicas: usize = raw.parse().map_err(|_| CliError::InvalidValue {
                option: "ensemble".to_string(),
                value: raw.to_string(),
                expected: "a positive integer",
            })?;
            if replicas == 0 {
                return Err(CliError::InvalidValue {
                    option: "ensemble".to_string(),
                    value: raw.to_string(),
                    expected: "a positive integer",
                });
            }
            Ok(Some((replicas, mode)))
        }
    }
}

/// Parses `--fault-plan` (the compact [`FaultPlan::parse`] grammar, e.g.
/// `panic:replica=1@250,io@10x2`) into a deterministic fault plan.
///
/// Returns an empty plan when the option is absent.  Replica faults only
/// make sense against an ensemble; the caller validates that combination
/// because only it knows whether `--ensemble` was given.
pub(crate) fn parse_fault_plan(args: &Arguments) -> Result<FaultPlan, CliError> {
    match args.get("fault-plan") {
        None => Ok(FaultPlan::new()),
        Some(raw) => FaultPlan::parse(raw).map_err(|detail| CliError::InvalidValue {
            option: "fault-plan".to_string(),
            value: format!("{raw} ({detail})"),
            expected: "comma-separated entries: panic:replica=<i>@<n>, \
                       io:replica=<i>@<n>x<f>, io@<n>x<f>, corrupt@<n>, stall@<n>x<ms>",
        }),
    }
}

/// Wraps the workload's source in a [`FaultySource`] when the plan carries
/// source faults; otherwise opens it untouched.
pub(crate) fn open_faulty_source(
    input: &WorkloadInput,
    plan: &FaultPlan,
) -> Result<Box<dyn ElementSource>, CliError> {
    let source = input.open()?;
    if plan.source.is_empty() {
        Ok(source)
    } else {
        Ok(Box::new(FaultySource::new(source, plan)))
    }
}

/// The circuit type `run --views` builds, spelled out once so the report
/// path can downcast [`ButterflyCounter::as_any`] back to it.
pub(crate) type BoxedCircuit = Circuit<Box<dyn ButterflyCounter + Send>>;

/// Parses `--views` (a comma-separated [`ViewKind`] list, e.g.
/// `peredge,vertex,anomaly`, or `all`) into the kinds to subscribe.
///
/// Returns an empty list when the option is absent (no circuit is built).
pub(crate) fn parse_views(args: &Arguments) -> Result<Vec<ViewKind>, CliError> {
    match args.get("views") {
        None => Ok(Vec::new()),
        Some(raw) => ViewKind::parse_list(raw).map_err(|expected| CliError::InvalidValue {
            option: "views".to_string(),
            value: raw.to_string(),
            expected,
        }),
    }
}

/// Builds the estimator a command's options describe: the bare spec, a
/// K-replica [`Ensemble`] fanning out over up to `spec.threads` workers,
/// and/or a delta [`Circuit`] with the requested views subscribed — the one
/// construction point `run` and `accuracy` share.
///
/// A non-empty `replica_faults` list arms supervision on the ensemble: the
/// listed faults fire deterministically, quarantining their replicas while
/// the rest keep serving (callers reject replica faults without
/// `--ensemble` before getting here).
pub(crate) fn build_counter(
    spec: EstimatorSpec,
    ensemble: Option<(usize, EnsembleMode)>,
    views: &[ViewKind],
    replica_faults: Vec<ReplicaFault>,
) -> Box<dyn ButterflyCounter + Send> {
    let base: Box<dyn ButterflyCounter + Send> = match ensemble {
        None if views.is_empty() => return spec.build(),
        None => return spec.build_with_views(views),
        Some((replicas, mode)) => {
            let mut ensemble = Ensemble::new(spec, replicas, mode)
                .expect("the option parser rejects zero replicas")
                .with_fan_out_threads(spec.threads);
            if !replica_faults.is_empty() {
                ensemble = ensemble.with_replica_faults(replica_faults);
            }
            Box::new(ensemble)
        }
    };
    if views.is_empty() {
        return base;
    }
    let mut circuit = Circuit::new(base);
    for &kind in views {
        circuit
            .subscribe_view(kind.build())
            .unwrap_or_else(|_| unreachable!("circuits accept every view"));
    }
    Box::new(circuit)
}

/// Parses a `--dataset` name into one of the four analog datasets.
pub(crate) fn parse_dataset(name: &str) -> Result<Dataset, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "movielens" | "movielens-like" => Ok(Dataset::MovielensLike),
        "livejournal" | "livejournal-like" => Ok(Dataset::LivejournalLike),
        "trackers" | "trackers-like" => Ok(Dataset::TrackersLike),
        "orkut" | "orkut-like" => Ok(Dataset::OrkutLike),
        other => Err(CliError::InvalidValue {
            option: "dataset".to_string(),
            value: other.to_string(),
            expected: "movielens, livejournal, trackers, or orkut",
        }),
    }
}

/// A workload described by the common `--input` / `--dataset` options.
///
/// The description is cheap and re-openable: [`open`](Self::open) yields a
/// fresh pull-based source each call (O(budget + chunk) ingest memory for
/// files), while [`materialize`](Self::materialize) is the explicit
/// O(stream)-memory fallback for consumers that need the whole workload
/// (ground truth).
#[derive(Debug, Clone)]
pub(crate) enum WorkloadInput {
    /// A stream file on disk (text or `ABST1` binary, sniffed per open).
    File {
        /// The `--input` path.
        path: String,
    },
    /// A generated dataset analog (materialized in memory per open — the
    /// generators are in-memory; files are the bounded-memory path).
    Dataset {
        /// The (scaled) generator specification.
        spec: DatasetSpec,
        /// Deletion ratio α.
        alpha: f64,
        /// Trial seed offset.
        trial: u64,
        /// Scale factor (for the label only; `spec` is already scaled).
        scale: u32,
    },
}

impl WorkloadInput {
    /// Parses the common `--input` / `--dataset` (+ `--alpha`, `--scale`,
    /// `--trial`) options.
    pub fn from_args(args: &Arguments) -> Result<Self, CliError> {
        if let Some(path) = args.get("input") {
            return Ok(WorkloadInput::File {
                path: path.to_string(),
            });
        }
        let Some(name) = args.get("dataset") else {
            return Err(CliError::MissingOption("input (or --dataset)"));
        };
        let dataset = parse_dataset(name)?;
        let alpha = parse_alpha(args)?;
        let scale: u32 = args.parsed_or("scale", 1, "a positive integer")?;
        let trial: u64 = args.parsed_or("trial", 0, "an unsigned integer")?;
        if scale == 0 {
            return Err(CliError::InvalidValue {
                option: "scale".to_string(),
                value: "0".to_string(),
                expected: "a positive integer",
            });
        }
        Ok(WorkloadInput::Dataset {
            spec: dataset.spec().scaled(scale),
            alpha,
            trial,
            scale,
        })
    }

    /// Short label for result lines ("stream.txt" or "Movielens-like ...").
    pub fn label(&self) -> String {
        match self {
            WorkloadInput::File { path } => path.clone(),
            WorkloadInput::Dataset {
                spec, alpha, scale, ..
            } => {
                format!("{} (alpha {alpha}, scale {scale})", spec.dataset.name())
            }
        }
    }

    /// Whether the workload is a file on disk — the case where pull-based
    /// ingestion genuinely bounds memory (generated datasets materialize
    /// inside [`open`](Self::open), since the generators are in-memory).
    pub fn is_file(&self) -> bool {
        matches!(self, WorkloadInput::File { .. })
    }

    /// Opens a fresh pull-based source over the workload.
    pub fn open(&self) -> Result<Box<dyn ElementSource>, CliError> {
        match self {
            WorkloadInput::File { path } => {
                open_path_source(path).map_err(|e| CliError::Io(e.to_string()))
            }
            WorkloadInput::Dataset {
                spec, alpha, trial, ..
            } => Ok(Box::new(IterSource::new(
                spec.stream(*alpha, *trial).into_iter(),
            ))),
        }
    }

    /// Materializes the whole workload in memory (the O(stream) path).
    pub fn materialize(&self) -> Result<GraphStream, CliError> {
        let mut source = self.open()?;
        abacus_stream::read_all(&mut source).map_err(|e| CliError::Io(e.to_string()))
    }
}

/// Parses and validates the `--alpha` deletion ratio (default 0.2).
pub(crate) fn parse_alpha(args: &Arguments) -> Result<f64, CliError> {
    let alpha: f64 = args.parsed_or("alpha", 0.2, "a fraction in [0, 1)")?;
    if !(0.0..1.0).contains(&alpha) {
        return Err(CliError::InvalidValue {
            option: "alpha".to_string(),
            value: alpha.to_string(),
            expected: "a fraction in [0, 1)",
        });
    }
    Ok(alpha)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Arguments {
        let raw: Vec<String> = parts.iter().map(|s| (*s).to_string()).collect();
        Arguments::parse(&raw).unwrap()
    }

    #[test]
    fn dataset_names_are_recognised_case_insensitively() {
        assert_eq!(parse_dataset("MovieLens").unwrap(), Dataset::MovielensLike);
        assert_eq!(parse_dataset("orkut-like").unwrap(), Dataset::OrkutLike);
        assert!(parse_dataset("imdb").is_err());
    }

    #[test]
    fn workload_from_dataset_respects_alpha_and_scale() {
        let input = WorkloadInput::from_args(&args(&[
            "--dataset",
            "movielens",
            "--alpha",
            "0.0",
            "--scale",
            "1",
        ]))
        .unwrap();
        assert!(input.label().contains("Movielens"));
        assert_eq!(
            input.materialize().unwrap().len(),
            Dataset::MovielensLike.spec().edges // no deletions
        );
    }

    #[test]
    fn workload_requires_input_or_dataset() {
        let err = WorkloadInput::from_args(&args(&[])).unwrap_err();
        assert!(matches!(err, CliError::MissingOption(_)));
    }

    #[test]
    fn reopening_a_workload_yields_identical_streams() {
        let input =
            WorkloadInput::from_args(&args(&["--dataset", "movielens", "--alpha", "0.2"])).unwrap();
        let first = input.materialize().unwrap();
        let second = input.materialize().unwrap();
        assert_eq!(first, second, "open() must be deterministic per workload");
        assert_eq!(first, Dataset::MovielensLike.spec().stream(0.2, 0));
    }

    #[test]
    fn alpha_out_of_range_is_rejected() {
        let err = parse_alpha(&args(&["--alpha", "1.5"])).unwrap_err();
        assert!(matches!(err, CliError::InvalidValue { .. }));
        assert!((parse_alpha(&args(&[])).unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn missing_input_file_is_an_io_error() {
        let input =
            WorkloadInput::from_args(&args(&["--input", "/definitely/not/here.txt"])).unwrap();
        match input.open() {
            Err(CliError::Io(_)) => {}
            Err(other) => panic!("expected an I/O error, got {other}"),
            Ok(_) => panic!("opening a missing file must fail"),
        }
    }
}
