//! Estimator configuration.

/// Whether ABACUS counts against a frozen CSR snapshot of the sample (see
/// `abacus_graph::csr`) instead of the hash-backed sample itself.
/// PARABACUS accepts the setting and ignores it.
///
/// Which backing counts is purely a performance choice: estimates are
/// bit-identical and the probe-model `comparisons` counters are unchanged,
/// which the snapshot-parity tests assert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotMode {
    /// Always count against the hash-backed sample (the ablation baseline).
    Off,
    /// Always maintain and count against the CSR snapshot.
    On,
    /// The default: count on the hash path, because the snapshot has not
    /// paid for its maintenance on any workload measured — ABACUS mirrors
    /// every mutation per element, which measured −41% on the
    /// Movielens-like analog and −49% on Trackers-like (see
    /// `BENCH_parabacus.json`).
    #[default]
    Auto,
}

impl std::str::FromStr for SnapshotMode {
    type Err = String;

    fn from_str(raw: &str) -> Result<Self, Self::Err> {
        match raw.to_ascii_lowercase().as_str() {
            "off" => Ok(SnapshotMode::Off),
            "on" => Ok(SnapshotMode::On),
            "auto" => Ok(SnapshotMode::Auto),
            other => Err(format!("unknown snapshot mode '{other}'")),
        }
    }
}

/// Configuration of the sequential ABACUS estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbacusConfig {
    /// Memory budget `k`: the maximum number of edges kept in the sample.
    /// The paper requires `k ≥ 2`; butterfly discovery needs at least 3.
    pub budget: usize,
    /// Seed of the estimator's private RNG (sampling decisions only).
    pub seed: u64,
    /// Whether counting runs against the frozen CSR snapshot.
    pub snapshot: SnapshotMode,
}

impl AbacusConfig {
    /// Creates a configuration with the given memory budget and seed 0.
    ///
    /// # Panics
    /// Panics if `budget < 2` (the paper's minimum).
    #[must_use]
    pub fn new(budget: usize) -> Self {
        assert!(
            budget >= 2,
            "ABACUS requires a memory budget of at least 2 edges"
        );
        AbacusConfig {
            budget,
            seed: 0,
            snapshot: SnapshotMode::default(),
        }
    }

    /// Returns the configuration with a different RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the configuration with a different snapshot mode.
    #[must_use]
    pub fn with_snapshot(mut self, snapshot: SnapshotMode) -> Self {
        self.snapshot = snapshot;
        self
    }

    /// Whether the sequential estimator counts against the CSR snapshot.
    ///
    /// `Auto` resolves to the hash path here: ABACUS mirrors every sample
    /// mutation into the snapshot *per element*, and on the bench workloads
    /// that maintenance costs more than the sorted kernels recover —
    /// `BENCH_parabacus.json` measures forcing the snapshot on as a −41%
    /// regression on the Movielens-like analog and −49% on Trackers-like,
    /// so there is no sequential workload in the sweep where it pays.  `On`
    /// forces the snapshot for ablation.
    #[must_use]
    pub fn snapshot_enabled(&self) -> bool {
        self.snapshot == SnapshotMode::On
    }
}

impl Default for AbacusConfig {
    fn default() -> Self {
        // A sensible laptop-scale default mirroring the paper's mid-range
        // sample size after dataset scaling (see DESIGN.md).
        AbacusConfig::new(3_000)
    }
}

/// Configuration of the mini-batch parallel PARABACUS estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParAbacusConfig {
    /// Memory budget `k`, as in [`AbacusConfig`].
    pub budget: usize,
    /// Seed of the estimator's private RNG.
    pub seed: u64,
    /// Mini-batch size `M` (the paper's default is 500 edges).
    pub batch_size: usize,
    /// Number of worker threads `p` used for per-edge counting.
    pub threads: usize,
    /// Accepted and validated (at least 1) but without effect: PARABACUS
    /// has every batch in its estimate by the time `process` returns.  The
    /// value is still persisted in run manifests and snapshots, and restore
    /// checks it against the configuration.
    pub pipeline_depth: usize,
    /// Carried for [`sequential`](Self::sequential) and the estimator
    /// registry; PARABACUS itself ignores it, since it counts on replicas of
    /// its sample and keeps no CSR snapshot.
    pub snapshot: SnapshotMode,
}

impl ParAbacusConfig {
    /// Creates a configuration with the paper's defaults (`M = 500`), as
    /// many threads as the machine offers, and a pipeline depth of 2 (which
    /// has no effect, see [`pipeline_depth`](Self::pipeline_depth)).
    ///
    /// # Panics
    /// Panics if `budget < 2`.
    #[must_use]
    pub fn new(budget: usize) -> Self {
        assert!(
            budget >= 2,
            "PARABACUS requires a memory budget of at least 2 edges"
        );
        ParAbacusConfig {
            budget,
            seed: 0,
            batch_size: 500,
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            pipeline_depth: 2,
            snapshot: SnapshotMode::default(),
        }
    }

    /// Returns the configuration with a different RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the configuration with a different mini-batch size.
    ///
    /// # Panics
    /// Panics if `batch_size` is zero.
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size >= 1, "mini-batch size must be at least 1");
        self.batch_size = batch_size;
        self
    }

    /// Returns the configuration with a different thread count.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "at least one thread is required");
        self.threads = threads;
        self
    }

    /// Returns the configuration with a different pipeline depth, which has
    /// no effect (see [`pipeline_depth`](Self::pipeline_depth)).
    ///
    /// # Panics
    /// Panics if `pipeline_depth` is zero.
    #[must_use]
    pub fn with_pipeline_depth(mut self, pipeline_depth: usize) -> Self {
        assert!(pipeline_depth >= 1, "pipeline depth must be at least 1");
        self.pipeline_depth = pipeline_depth;
        self
    }

    /// Returns the configuration with a different snapshot mode (which
    /// PARABACUS ignores, see [`snapshot`](Self::snapshot)).
    #[must_use]
    pub fn with_snapshot(mut self, snapshot: SnapshotMode) -> Self {
        self.snapshot = snapshot;
        self
    }

    /// The equivalent sequential configuration (same budget, seed and
    /// snapshot mode).
    #[must_use]
    pub fn sequential(&self) -> AbacusConfig {
        AbacusConfig {
            budget: self.budget,
            seed: self.seed,
            snapshot: self.snapshot,
        }
    }
}

impl Default for ParAbacusConfig {
    fn default() -> Self {
        ParAbacusConfig::new(AbacusConfig::default().budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abacus_config_builders() {
        let c = AbacusConfig::new(100).with_seed(9);
        assert_eq!(c.budget, 100);
        assert_eq!(c.seed, 9);
        assert!(AbacusConfig::default().budget >= 2);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_budget_panics() {
        let _ = AbacusConfig::new(1);
    }

    #[test]
    fn snapshot_mode_resolution_and_parsing() {
        let resolved = |mode| {
            AbacusConfig::new(1_000_000)
                .with_snapshot(mode)
                .snapshot_enabled()
        };
        assert!(!resolved(SnapshotMode::Off));
        assert!(resolved(SnapshotMode::On));
        assert!(!resolved(SnapshotMode::Auto));
        assert_eq!("on".parse::<SnapshotMode>().unwrap(), SnapshotMode::On);
        assert_eq!("OFF".parse::<SnapshotMode>().unwrap(), SnapshotMode::Off);
        assert_eq!("Auto".parse::<SnapshotMode>().unwrap(), SnapshotMode::Auto);
        assert!("sometimes".parse::<SnapshotMode>().is_err());
    }

    #[test]
    fn snapshot_settings_flow_through_builders() {
        let c = AbacusConfig::new(100).with_snapshot(SnapshotMode::On);
        assert!(c.snapshot_enabled());

        let p = ParAbacusConfig::new(100).with_snapshot(SnapshotMode::Off);
        assert_eq!(p.snapshot, SnapshotMode::Off);
        let seq = p.sequential();
        assert_eq!(seq.snapshot, SnapshotMode::Off);
        // Auto: the sequential estimator stays on the hash path (per-element
        // mirroring measured slower than the kernels it feeds).
        assert_eq!(ParAbacusConfig::new(64).snapshot, SnapshotMode::Auto);
        assert!(!AbacusConfig::new(3_000).snapshot_enabled());
        assert!(AbacusConfig::new(3_000)
            .with_snapshot(SnapshotMode::On)
            .snapshot_enabled());
    }

    #[test]
    fn parabacus_config_builders() {
        let c = ParAbacusConfig::new(64)
            .with_seed(3)
            .with_batch_size(128)
            .with_threads(4)
            .with_pipeline_depth(3);
        assert_eq!(c.budget, 64);
        assert_eq!(c.seed, 3);
        assert_eq!(c.batch_size, 128);
        assert_eq!(c.threads, 4);
        assert_eq!(c.pipeline_depth, 3);
        let seq = c.sequential();
        assert_eq!(seq.budget, 64);
        assert_eq!(seq.seed, 3);
    }

    #[test]
    fn parabacus_defaults_use_paper_batch_size() {
        let c = ParAbacusConfig::new(64);
        assert_eq!(c.batch_size, 500);
        assert!(c.threads >= 1);
        assert_eq!(c.pipeline_depth, 2);
    }

    #[test]
    #[should_panic(expected = "pipeline depth")]
    fn zero_pipeline_depth_panics() {
        let _ = ParAbacusConfig::new(64).with_pipeline_depth(0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = ParAbacusConfig::new(64).with_threads(0);
    }

    #[test]
    #[should_panic(expected = "mini-batch")]
    fn zero_batch_panics() {
        let _ = ParAbacusConfig::new(64).with_batch_size(0);
    }
}
