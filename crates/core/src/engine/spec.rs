//! [`EstimatorSpec`]: the serde-able description of one estimator, and the
//! registry that builds it.

use crate::config::{AbacusConfig, ParAbacusConfig, SnapshotMode};
use crate::counter::ButterflyCounter;
use crate::{Abacus, ExactCounter, LocalAbacus, ParAbacus};
use abacus_baselines::{Cas, CasConfig, Fleet, FleetConfig};
use serde::{Deserialize, Serialize};

/// Every estimator the registry can build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EstimatorKind {
    /// ABACUS — sequential, fully dynamic (the paper's Algorithm 1).
    Abacus,
    /// PARABACUS — mini-batch parallel, fully dynamic.
    ParAbacus,
    /// ABACUS with per-vertex (local) butterfly attribution.
    Local,
    /// FLEET3 — insert-only baseline (CIKM 2019).
    Fleet,
    /// CAS — insert-only baseline (TKDE 2022).
    Cas,
    /// The exact streaming oracle (unbounded memory, ground truth).
    Exact,
}

impl EstimatorKind {
    /// Every kind, in canonical presentation order.
    pub const ALL: [EstimatorKind; 6] = [
        EstimatorKind::Abacus,
        EstimatorKind::ParAbacus,
        EstimatorKind::Local,
        EstimatorKind::Fleet,
        EstimatorKind::Cas,
        EstimatorKind::Exact,
    ];

    /// The canonical choice list, phrased for error messages — the *single*
    /// source of truth shared by the CLI's `--algorithm` option and the
    /// bench harness, so the two can never drift apart again.
    pub const EXPECTED_NAMES: &'static str = "abacus, parabacus, local, fleet, cas, or exact";

    /// The canonical (lower-case) name, accepted by [`EstimatorKind::parse`].
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EstimatorKind::Abacus => "abacus",
            EstimatorKind::ParAbacus => "parabacus",
            EstimatorKind::Local => "local",
            EstimatorKind::Fleet => "fleet",
            EstimatorKind::Cas => "cas",
            EstimatorKind::Exact => "exact",
        }
    }

    /// Display label for result tables (matches each estimator's
    /// [`ButterflyCounter::name`]).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EstimatorKind::Abacus => "ABACUS",
            EstimatorKind::ParAbacus => "PARABACUS",
            EstimatorKind::Local => "ABACUS-local",
            EstimatorKind::Fleet => "FLEET",
            EstimatorKind::Cas => "CAS",
            EstimatorKind::Exact => "EXACT",
        }
    }

    /// Parses a kind from its canonical name, case-insensitively.
    ///
    /// # Errors
    ///
    /// Returns the list of valid choices ([`EstimatorKind::EXPECTED_NAMES`])
    /// for anything unrecognised, so front ends can surface it verbatim.
    pub fn parse(raw: &str) -> Result<Self, &'static str> {
        let lower = raw.to_ascii_lowercase();
        EstimatorKind::ALL
            .into_iter()
            .find(|kind| kind.name() == lower)
            .ok_or(Self::EXPECTED_NAMES)
    }
}

impl std::str::FromStr for EstimatorKind {
    type Err = &'static str;

    fn from_str(raw: &str) -> Result<Self, Self::Err> {
        EstimatorKind::parse(raw)
    }
}

impl std::fmt::Display for EstimatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A complete, buildable description of one estimator.
///
/// The spec is the union of every constructor knob in the workspace; kinds
/// simply ignore the fields that do not apply to them (EXACT ignores
/// everything but the kind, FLEET/CAS use budget and seed only).  That makes
/// specs freely interchangeable — an experiment sweep can swap the kind
/// while holding every other knob fixed.
///
/// ```
/// use abacus_core::engine::{EstimatorKind, EstimatorSpec};
///
/// let spec = EstimatorSpec::parabacus(3_000)
///     .with_seed(7)
///     .with_batch_size(500)
///     .with_threads(2);
/// let mut counter = spec.build();
/// assert_eq!(counter.name(), "PARABACUS");
/// assert_eq!(spec.kind, EstimatorKind::ParAbacus);
/// assert_eq!(counter.estimate(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EstimatorSpec {
    /// Which estimator to build.
    pub kind: EstimatorKind,
    /// Memory budget `k` in edges (≥ 2; ignored by EXACT).
    pub budget: usize,
    /// Seed of the estimator's private RNG.
    pub seed: u64,
    /// PARABACUS mini-batch size `M`.
    pub batch_size: usize,
    /// PARABACUS worker threads `p`.
    pub threads: usize,
    /// PARABACUS pipeline depth: validated and persisted, without effect
    /// (see [`ParAbacusConfig::pipeline_depth`]).
    pub pipeline_depth: usize,
    /// Accepted and persisted in run manifests, with no effect (see
    /// [`SnapshotMode`]).
    pub snapshot: SnapshotMode,
}

impl EstimatorSpec {
    /// Creates a spec with the workspace defaults: seed 0, the paper's
    /// `M = 500` mini-batches, as many PARABACUS threads as the machine
    /// offers, pipeline depth 2 and snapshot mode `auto` (neither has an
    /// effect).
    ///
    /// # Panics
    /// Panics if `budget < 2` (the paper's minimum; EXACT tolerates any
    /// value but keeping the floor uniform keeps specs interchangeable
    /// across kinds).
    #[must_use]
    pub fn new(kind: EstimatorKind, budget: usize) -> Self {
        assert!(
            budget >= 2,
            "estimators require a memory budget of at least 2 edges"
        );
        let parallel_defaults = ParAbacusConfig::new(budget);
        EstimatorSpec {
            kind,
            budget,
            seed: 0,
            batch_size: parallel_defaults.batch_size,
            threads: parallel_defaults.threads,
            pipeline_depth: parallel_defaults.pipeline_depth,
            snapshot: SnapshotMode::default(),
        }
    }

    /// A sequential ABACUS spec.
    #[must_use]
    pub fn abacus(budget: usize) -> Self {
        EstimatorSpec::new(EstimatorKind::Abacus, budget)
    }

    /// A mini-batch parallel PARABACUS spec.
    #[must_use]
    pub fn parabacus(budget: usize) -> Self {
        EstimatorSpec::new(EstimatorKind::ParAbacus, budget)
    }

    /// A per-vertex (local) ABACUS spec.
    #[must_use]
    pub fn local(budget: usize) -> Self {
        EstimatorSpec::new(EstimatorKind::Local, budget)
    }

    /// An insert-only FLEET3 baseline spec.
    #[must_use]
    pub fn fleet(budget: usize) -> Self {
        EstimatorSpec::new(EstimatorKind::Fleet, budget)
    }

    /// An insert-only CAS baseline spec.
    #[must_use]
    pub fn cas(budget: usize) -> Self {
        EstimatorSpec::new(EstimatorKind::Cas, budget)
    }

    /// An exact-oracle spec (the budget is ignored by the oracle).
    #[must_use]
    pub fn exact() -> Self {
        EstimatorSpec::new(EstimatorKind::Exact, 2)
    }

    /// Parses `name` into a spec with the given budget and the defaults of
    /// [`EstimatorSpec::new`] — the one parsing path shared by the CLI's
    /// `--algorithm` option and the bench harness.
    ///
    /// # Errors
    ///
    /// Returns [`EstimatorKind::EXPECTED_NAMES`] for unknown names.
    pub fn from_name(name: &str, budget: usize) -> Result<Self, &'static str> {
        Ok(EstimatorSpec::new(EstimatorKind::parse(name)?, budget))
    }

    /// Returns the spec with a different RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the spec with a different mini-batch size.
    ///
    /// # Panics
    /// Panics if `batch_size` is zero.
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size >= 1, "mini-batch size must be at least 1");
        self.batch_size = batch_size;
        self
    }

    /// Returns the spec with a different PARABACUS thread count.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "at least one thread is required");
        self.threads = threads;
        self
    }

    /// Returns the spec with a different pipeline depth, which has no
    /// effect (see [`ParAbacusConfig::pipeline_depth`]).
    ///
    /// # Panics
    /// Panics if `pipeline_depth` is zero.
    #[must_use]
    pub fn with_pipeline_depth(mut self, pipeline_depth: usize) -> Self {
        assert!(pipeline_depth >= 1, "pipeline depth must be at least 1");
        self.pipeline_depth = pipeline_depth;
        self
    }

    /// Returns the spec with a different snapshot mode, which has no effect
    /// (see [`SnapshotMode`]).
    #[must_use]
    pub fn with_snapshot(mut self, snapshot: SnapshotMode) -> Self {
        self.snapshot = snapshot;
        self
    }

    /// The equivalent sequential-ABACUS configuration (shared by the ABACUS
    /// and LOCAL kinds).
    #[must_use]
    pub fn abacus_config(&self) -> AbacusConfig {
        AbacusConfig::new(self.budget).with_seed(self.seed)
    }

    /// The equivalent PARABACUS configuration.
    #[must_use]
    pub fn parabacus_config(&self) -> ParAbacusConfig {
        ParAbacusConfig::new(self.budget)
            .with_seed(self.seed)
            .with_batch_size(self.batch_size)
            .with_threads(self.threads)
            .with_pipeline_depth(self.pipeline_depth)
    }

    /// Builds the described estimator — the single construction point every
    /// front end (CLI `run`/`accuracy`, the bench runners, ensembles)
    /// routes through.
    ///
    /// The box is `Send` so replicas can be fanned out to worker threads by
    /// [`Ensemble`](crate::engine::Ensemble).
    #[must_use]
    pub fn build(&self) -> Box<dyn ButterflyCounter + Send> {
        match self.kind {
            EstimatorKind::Abacus => Box::new(Abacus::new(self.abacus_config())),
            EstimatorKind::ParAbacus => Box::new(ParAbacus::new(self.parabacus_config())),
            EstimatorKind::Local => Box::new(LocalAbacus::new(self.abacus_config())),
            EstimatorKind::Fleet => Box::new(Fleet::new(
                FleetConfig::new(self.budget).with_seed(self.seed),
            )),
            EstimatorKind::Cas => {
                Box::new(Cas::new(CasConfig::new(self.budget).with_seed(self.seed)))
            }
            EstimatorKind::Exact => Box::new(ExactCounter::new()),
        }
    }

    /// Builds the described estimator wrapped in a delta
    /// [`Circuit`](crate::circuit::Circuit) with the given views subscribed
    /// — the construction point behind the CLI's `--views` option.
    ///
    /// With an empty view list this still returns a circuit (so callers can
    /// rely on the graph-replaying wrapper uniformly); use
    /// [`build`](Self::build) when no views are wanted and the authoritative
    /// graph would be dead weight.
    #[must_use]
    pub fn build_with_views(
        &self,
        views: &[crate::circuit::ViewKind],
    ) -> Box<dyn ButterflyCounter + Send> {
        let mut circuit = crate::circuit::Circuit::new(self.build());
        for &kind in views {
            // `Circuit::add_view` is the infallible inherent form of the
            // `subscribe_view` trait hook, which only errs on non-circuits.
            circuit.add_view(kind.build());
        }
        Box::new(circuit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abacus_graph::Edge;
    use abacus_stream::StreamElement;

    #[test]
    fn every_kind_round_trips_through_its_canonical_name() {
        for kind in EstimatorKind::ALL {
            assert_eq!(EstimatorKind::parse(kind.name()).unwrap(), kind);
            assert_eq!(kind.name().parse::<EstimatorKind>().unwrap(), kind);
            // Case-insensitive, as the CLI has always been.
            let upper = kind.name().to_ascii_uppercase();
            assert_eq!(EstimatorKind::parse(&upper).unwrap(), kind);
            assert!(
                EstimatorKind::EXPECTED_NAMES.contains(kind.name()),
                "{} missing from the canonical choice list",
                kind.name()
            );
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(
            EstimatorKind::parse("magic").unwrap_err(),
            EstimatorKind::EXPECTED_NAMES
        );
    }

    #[test]
    fn registry_builds_every_kind_with_its_table_label() {
        for kind in EstimatorKind::ALL {
            let counter = EstimatorSpec::new(kind, 64).with_seed(3).build();
            assert_eq!(counter.name(), kind.label(), "{kind}");
            assert_eq!(counter.estimate(), 0.0, "{kind}");
        }
    }

    #[test]
    fn built_estimators_process_a_butterfly() {
        // K_{2,2} = one butterfly; a covering budget makes the dynamic
        // estimators exact and the oracle trivially so.
        let stream: Vec<StreamElement> = [(0, 10), (0, 11), (1, 10), (1, 11)]
            .into_iter()
            .map(|(l, r)| StreamElement::insert(Edge::new(l, r)))
            .collect();
        for kind in EstimatorKind::ALL {
            let mut counter = EstimatorSpec::new(kind, 64).build();
            counter.process_stream(&stream);
            assert_eq!(counter.estimate(), 1.0, "{kind}");
            assert!(counter.memory_edges() >= 4, "{kind}");
        }
    }

    #[test]
    fn specs_flow_their_knobs_into_the_configs() {
        let spec = EstimatorSpec::parabacus(128)
            .with_seed(9)
            .with_batch_size(64)
            .with_threads(2)
            .with_pipeline_depth(3)
            .with_snapshot(SnapshotMode::On);
        let config = spec.parabacus_config();
        assert_eq!(config.budget, 128);
        assert_eq!(config.seed, 9);
        assert_eq!(config.batch_size, 64);
        assert_eq!(config.threads, 2);
        assert_eq!(config.pipeline_depth, 3);
        let sequential = spec.abacus_config();
        assert_eq!(sequential.seed, 9);
        // The snapshot mode stays on the spec only: it has no effect.
        assert_eq!(spec.snapshot, SnapshotMode::On);
    }

    #[test]
    fn from_name_applies_the_budget() {
        let spec = EstimatorSpec::from_name("FLEET", 256).unwrap();
        assert_eq!(spec.kind, EstimatorKind::Fleet);
        assert_eq!(spec.budget, 256);
        assert_eq!(
            EstimatorSpec::from_name("nope", 256).unwrap_err(),
            EstimatorKind::EXPECTED_NAMES
        );
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_budget_panics_at_spec_construction() {
        let _ = EstimatorSpec::abacus(1);
    }
}
