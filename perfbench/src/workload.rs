//! The four workloads, their generated input files, and the cached ground
//! truth.
//!
//! A workload's input is a function of the benchmark seed alone: the seed is
//! mixed into the dataset analog's generator seed and used as the
//! deletion-placement trial.  Files and exact counts are cached under the
//! data directory, so a timed run never pays for generating them.

use abacus_core::{EstimatorKind, EstimatorSpec, SnapshotMode, ViewKind};
use abacus_stream::binary::write_binary_stream_to_path;
use abacus_stream::{final_graph, Dataset, DatasetSpec};
use std::fs;
use std::path::{Path, PathBuf};

/// Deletion ratio α of every workload.
pub const ALPHA: f64 = 0.2;

/// Estimator seed of every timed and checked pass.
pub const ESTIMATOR_SEED: u64 = 0;

/// The data seed `rel_error_pct` is measured at, whatever `--seed` is.
pub const ACCURACY_DATA_SEED: u64 = 0;

/// Estimator seeds `0..ACCURACY_SEEDS` whose RMS error is `rel_error_pct`.
pub const ACCURACY_SEEDS: u64 = 8;

/// A dataset analog at a fixed size.
#[derive(Debug, Clone, Copy)]
pub struct Data {
    /// File-name stem shared by every workload on the same data.
    pub label: &'static str,
    /// The KONECT analog.
    pub dataset: Dataset,
    /// `DatasetSpec::scaled` factor.
    pub scale: u32,
    /// Edge count override (keeps the vertex counts, thins the graph).
    pub edges: Option<usize>,
}

impl Data {
    /// The generator for `seed`: seed 0 is the canonical analog.
    pub fn spec(&self, seed: u64) -> DatasetSpec {
        let mut spec = self.dataset.spec().scaled(self.scale);
        if let Some(edges) = self.edges {
            spec.edges = edges;
        }
        spec.seed ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        spec
    }
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Input data.
    pub data: Data,
    /// The estimator, as `abacus run` would build it from `cli_args`.
    pub spec: EstimatorSpec,
    /// `--views`.
    pub views: Vec<ViewKind>,
    /// `--checkpoint-every` when the run is durable.
    pub checkpoint_every: Option<u64>,
    /// Estimator flags of the equivalent `abacus run` command line.
    pub cli_args: Vec<String>,
    /// Largest accepted `rel_error_pct`.
    pub max_rel_error_pct: f64,
}

impl Workload {
    /// Sequential ABACUS with the workload's budget and seed: the bare
    /// estimator every workload's estimate must match.
    pub fn bare_spec(&self) -> EstimatorSpec {
        EstimatorSpec {
            kind: EstimatorKind::Abacus,
            ..self.spec
        }
    }

    /// Whether the workload is plain ABACUS: no views, no durability.
    pub fn is_bare(&self) -> bool {
        self.spec.kind == EstimatorKind::Abacus
            && self.views.is_empty()
            && self.checkpoint_every.is_none()
    }
}

const TRACKERS: Data = Data {
    label: "trackers-x2",
    dataset: Dataset::TrackersLike,
    scale: 2,
    edges: None,
};

const ORKUT: Data = Data {
    label: "orkut-x2",
    dataset: Dataset::OrkutLike,
    scale: 2,
    edges: None,
};

/// Thinned from 60 000 edges so a views pass takes under a second.  28 000
/// edges make 33 600 elements: nine pull chunks, an odd count, so the
/// median chunk is one chunk position rather than the seam between two.
const MOVIELENS: Data = Data {
    label: "movielens-e28k",
    dataset: Dataset::MovielensLike,
    scale: 1,
    edges: Some(28_000),
};

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_string()).collect()
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    let abacus = |budget: usize| {
        EstimatorSpec::abacus(budget)
            .with_seed(ESTIMATOR_SEED)
            .with_snapshot(SnapshotMode::Auto)
    };
    let abacus_args = |budget: &str| {
        args(&[
            "--algorithm",
            "abacus",
            "--budget",
            budget,
            "--seed",
            "0",
            "--snapshot",
            "auto",
        ])
    };
    let workload = match name {
        "trackers-par" => Workload {
            name: "trackers-par",
            data: TRACKERS,
            spec: EstimatorSpec::parabacus(30_000)
                .with_seed(ESTIMATOR_SEED)
                .with_batch_size(10_000)
                .with_threads(2)
                .with_pipeline_depth(2)
                .with_snapshot(SnapshotMode::Auto),
            views: Vec::new(),
            checkpoint_every: None,
            cli_args: args(&[
                "--algorithm",
                "parabacus",
                "--budget",
                "30000",
                "--seed",
                "0",
                "--batch",
                "10000",
                "--threads",
                "2",
                "--pipeline-depth",
                "2",
                "--snapshot",
                "auto",
            ]),
            max_rel_error_pct: 10.0,
        },
        "trackers-seq" => Workload {
            name: "trackers-seq",
            data: TRACKERS,
            spec: abacus(30_000),
            views: Vec::new(),
            checkpoint_every: None,
            cli_args: abacus_args("30000"),
            max_rel_error_pct: 10.0,
        },
        "orkut-durable" => Workload {
            name: "orkut-durable",
            data: ORKUT,
            spec: abacus(30_000),
            views: Vec::new(),
            checkpoint_every: Some(10_000),
            cli_args: {
                let mut list = abacus_args("30000");
                list.extend(args(&["--checkpoint-every", "10000"]));
                list
            },
            max_rel_error_pct: 25.0,
        },
        "movielens-views" => Workload {
            name: "movielens-views",
            data: MOVIELENS,
            spec: abacus(3_000),
            views: ViewKind::ALL.to_vec(),
            checkpoint_every: None,
            cli_args: {
                let mut list = abacus_args("3000");
                list.extend(args(&["--views", "all"]));
                list
            },
            max_rel_error_pct: 40.0,
        },
        _ => return None,
    };
    Some(workload)
}

/// Names accepted by [`by_name`].
pub const NAMES: [&str; 4] = [
    "trackers-par",
    "trackers-seq",
    "orkut-durable",
    "movielens-views",
];

/// A generated input file and its exact final butterfly count.
#[derive(Debug, Clone)]
pub struct Input {
    /// The binary stream file.
    pub path: PathBuf,
    /// Elements in the file.
    pub elements: u64,
    /// Exact butterflies of the final graph.
    pub exact: u128,
}

/// Writes `text` to `path` through a temporary file and a rename, so an
/// interrupted run never leaves a half-written cache entry behind.
fn write_atomically(
    path: &Path,
    write: impl FnOnce(&Path) -> std::io::Result<()>,
) -> Result<(), String> {
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    write(&tmp).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
    fs::rename(&tmp, path).map_err(|e| format!("renaming {}: {e}", tmp.display()))
}

/// Returns the input of `data` at `seed`, generating the file and the exact
/// count on first use.
pub fn input(dir: &Path, data: &Data, seed: u64) -> Result<Input, String> {
    let stem = dir.join(format!("{}-s{seed}", data.label));
    let path = stem.with_extension("abst");
    let meta = stem.with_extension("exact");
    if let Ok(text) = fs::read_to_string(&meta) {
        let mut fields = text.split_whitespace().map(str::parse::<u128>);
        if let (Some(Ok(elements)), Some(Ok(exact))) = (fields.next(), fields.next()) {
            if path.exists() {
                return Ok(Input {
                    path,
                    elements: elements as u64,
                    exact,
                });
            }
        }
    }
    let stream = data.spec(seed).stream(ALPHA, seed);
    write_atomically(&path, |tmp| write_binary_stream_to_path(&stream, tmp))?;
    let exact = abacus_graph::count_butterflies(&final_graph(&stream));
    let elements = stream.len() as u64;
    write_atomically(&meta, |tmp| fs::write(tmp, format!("{elements} {exact}\n")))?;
    Ok(Input {
        path,
        elements,
        exact,
    })
}
