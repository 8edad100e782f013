//! Estimator configuration.

/// Accepted, validated and persisted, with no effect: every estimator
/// counts on its sample.
///
/// The mode once chose whether ABACUS counted against a frozen CSR mirror
/// of its sample instead.  It still parses (`on`, `off`, `auto`), rides in
/// [`EstimatorSpec`](crate::EstimatorSpec) and is written to run manifests,
/// so existing command lines, callers and checkpoint directories keep
/// working.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotMode {
    /// `off`; no effect.
    Off,
    /// `on`; no effect.
    On,
    /// `auto`, the default; no effect.
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
        AbacusConfig { budget, seed: 0 }
    }

    /// Returns the configuration with a different RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
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

    /// The equivalent sequential configuration (same budget and seed).
    #[must_use]
    pub fn sequential(&self) -> AbacusConfig {
        AbacusConfig {
            budget: self.budget,
            seed: self.seed,
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
        assert_eq!("on".parse::<SnapshotMode>().unwrap(), SnapshotMode::On);
        assert_eq!("OFF".parse::<SnapshotMode>().unwrap(), SnapshotMode::Off);
        assert_eq!("Auto".parse::<SnapshotMode>().unwrap(), SnapshotMode::Auto);
        assert!("sometimes".parse::<SnapshotMode>().is_err());
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
