//! K estimator replicas run as one: the [`Ensemble`] driver, and the replica
//! set it shares with the durable [`EnsembleSupervisor`].
//!
//! The single-instance estimators bound their variance only through the
//! memory budget.  An ensemble adds a second, horizontally scalable axis,
//! chosen by [`EnsembleMode`]:
//!
//! * **Replicate** — every replica sees the *full* stream with an
//!   independently derived seed; the ensemble estimate is the **mean** of
//!   the replica estimates.  Replicas are i.i.d., so averaging K of them
//!   cuts the estimator variance by ~K at K× the memory and work, and their
//!   spread gives a sample standard deviation and a 95% confidence interval
//!   ([`Ensemble::replicate_summary`]) that one bare run cannot provide.
//! * **Partition** — each edge is hash-routed to exactly **one** replica
//!   (deletions follow their insertions, since routing is a pure function of
//!   the edge), and the ensemble estimate is the **sum** of the per-shard
//!   estimates.  Memory and work shard K ways, but a butterfly is only
//!   observed if all four of its edges land in one shard: partition
//!   estimates are *per-shard local counts* and miss cross-shard
//!   butterflies.  It is a throughput tool, not an unbiased global
//!   estimator.
//!
//! Which replicas take an element and how the healthy estimates merge are
//! decided by [`EnsembleMode`] alone.  Everything else an ensemble does per
//! replica lives in one crate-private replica set, generic over the replica
//! (a bare estimator here, a [`Checkpointer`] under the supervisor): one loop
//! runs a replica over the elements routed to it under `catch_unwind` and
//! fires its injected faults, and one ledger records quarantines and yields
//! the health report, the merged estimate and the replica-spread summary.
//!
//! # Fault containment
//!
//! A replica that panics, or exhausts its retry budget on an injected
//! transient I/O fault, is **quarantined** at the element it failed on:
//! recorded in the [`HealthReport`], excluded from every merge and summary,
//! and never fed again, while the other replicas keep serving a degraded
//! estimate.  Its state stays in its slot.  Only the supervisor's replicas
//! can rejoin, because only they have a checkpoint to recover from.
//!
//! # Exactness discipline
//!
//! A `K = 1` replicate ensemble is **bit-identical** to the bare estimator
//! built from the same spec: replica 0 inherits the base seed
//! ([`derive_seed`]`(base, 0) == base`), every element reaches the replica's
//! `process` in stream order, and the single `finish` happens at the end of
//! the source — exactly the contract of the bare driver.  Fan-out threads
//! never change results either, faults or not: each replica is owned by one
//! worker per chunk and processes its elements in order, and estimates merge
//! in replica-index order.  Both properties are asserted by
//! `tests/ensemble_parity.rs`.
//!
//! [`EnsembleSupervisor`]: crate::engine::EnsembleSupervisor
//! [`Checkpointer`]: crate::engine::Checkpointer

use crate::counter::ButterflyCounter;
use crate::engine::error::panic_message;
use crate::engine::{EngineError, EstimatorSpec, ReplicaError};
use abacus_graph::persist::{Decoder, Encoder, PersistError};
use abacus_metrics::{HealthReport, QuarantineRecord};
use abacus_sampling::{derive_seed, splitmix64};
use abacus_stream::fault::{ReplicaFault, ReplicaFaultKind};
use abacus_stream::persist::{with_retry, RetryPolicy};
use abacus_stream::{ElementSource, StreamElement, StreamIoError};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How the ensemble distributes the stream across replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum EnsembleMode {
    /// Every replica processes the full stream under an independent seed;
    /// the ensemble estimate is the mean of the replica estimates (variance
    /// ↓ ~K× at K× the memory).  The default.
    #[default]
    Replicate,
    /// Each edge is hash-routed to one replica; the ensemble estimate is
    /// the sum of per-shard estimates.  Memory and work shard K ways, but
    /// cross-shard butterflies are not observed (per-shard local counts).
    Partition,
}

impl EnsembleMode {
    /// The canonical choice list, phrased for error messages.
    pub const EXPECTED_NAMES: &'static str = "replicate or partition";

    /// The canonical (lower-case) name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EnsembleMode::Replicate => "replicate",
            EnsembleMode::Partition => "partition",
        }
    }

    /// Parses a mode from its canonical name, case-insensitively.
    ///
    /// # Errors
    /// Returns [`EnsembleMode::EXPECTED_NAMES`] for anything unrecognised.
    pub fn parse(raw: &str) -> Result<Self, &'static str> {
        match raw.to_ascii_lowercase().as_str() {
            "replicate" => Ok(EnsembleMode::Replicate),
            "partition" => Ok(EnsembleMode::Partition),
            _ => Err(Self::EXPECTED_NAMES),
        }
    }

    /// Whether replica `replica` of `replicas` takes `element`: every
    /// replica under replicate; under partition, the one shard a splitmix64
    /// avalanche of the packed edge key picks mod K.  Purely a function of
    /// the edge, so a deletion always follows its insertion.
    pub(crate) fn takes(self, element: StreamElement, replica: usize, replicas: usize) -> bool {
        match self {
            EnsembleMode::Replicate => true,
            // Full-width avalanche so shard occupancy is balanced even for
            // the generators' sequential vertex ids.
            EnsembleMode::Partition => {
                splitmix64(element.edge.key().0) % replicas as u64 == replica as u64
            }
        }
    }

    /// Merges the summed estimates of `healthy` replicas: their mean under
    /// replicate, their sum under partition.  No healthy replica merges to
    /// 0.0 — degradation is surfaced through the health report, never
    /// through a NaN.
    fn merge(self, sum: f64, healthy: usize) -> f64 {
        match self {
            _ if healthy == 0 => 0.0,
            EnsembleMode::Replicate => sum / healthy as f64,
            EnsembleMode::Partition => sum,
        }
    }
}

impl std::str::FromStr for EnsembleMode {
    type Err = &'static str;

    fn from_str(raw: &str) -> Result<Self, Self::Err> {
        EnsembleMode::parse(raw)
    }
}

impl std::fmt::Display for EnsembleMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Replica-spread statistics of a replicate-mode ensemble.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnsembleSummary {
    /// Mean of the replica estimates (the ensemble estimate).
    pub mean: f64,
    /// Sample standard deviation (n−1) of the replica estimates; 0 for K=1.
    pub std_dev: f64,
    /// Standard error of the mean, `std_dev / sqrt(K)`.
    pub std_err: f64,
    /// Half-width of the normal-approximation 95% confidence interval,
    /// `1.96 · std_err`.  (K is small, so treat it as indicative, not a
    /// calibrated guarantee.)
    pub ci95_half_width: f64,
}

/// What a replica set drives: an estimator that takes elements, failing
/// only on persistence, and exposes its counter for reads.
pub(crate) trait Replica {
    /// Processes one element.
    fn offer(&mut self, element: StreamElement) -> Result<(), PersistError>;
    /// The live estimator.
    fn counter(&self) -> &dyn ButterflyCounter;
}

impl Replica for Box<dyn ButterflyCounter + Send> {
    fn offer(&mut self, element: StreamElement) -> Result<(), PersistError> {
        self.process(element);
        Ok(())
    }

    fn counter(&self) -> &dyn ButterflyCounter {
        &**self
    }
}

/// One replica and its quarantine record (`Some` ⇒ out of service).
struct Slot<R> {
    replica: R,
    quarantine: Option<(u64, ReplicaError)>,
}

/// K replicas with their quarantine ledger and armed faults.
pub(crate) struct ReplicaSet<R> {
    mode: EnsembleMode,
    slots: Vec<Slot<R>>,
    /// Injected faults; each fires when its replica reaches its element.
    faults: Vec<ReplicaFault>,
    /// Retry budget for injected transient I/O faults.
    retry: RetryPolicy,
    /// Global index of the next element.
    position: u64,
}

impl<R: Replica> ReplicaSet<R> {
    /// A set whose next element has global index `position`.
    pub(crate) fn new(
        mode: EnsembleMode,
        replicas: impl IntoIterator<Item = R>,
        retry: RetryPolicy,
        position: u64,
    ) -> Self {
        let slots = replicas
            .into_iter()
            .map(|replica| Slot {
                replica,
                quarantine: None,
            })
            .collect();
        ReplicaSet {
            mode,
            slots,
            faults: Vec::new(),
            retry,
            position,
        }
    }

    pub(crate) fn arm(&mut self, faults: Vec<ReplicaFault>) {
        self.faults = faults;
    }

    pub(crate) fn mode(&self) -> EnsembleMode {
        self.mode
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn position(&self) -> u64 {
        self.position
    }

    /// Replica `index`, unless it is quarantined (or out of range).
    pub(crate) fn get(&self, index: usize) -> Option<&R> {
        self.slots
            .get(index)
            .filter(|slot| slot.quarantine.is_none())
            .map(|slot| &slot.replica)
    }

    /// Mutable [`get`](Self::get).
    pub(crate) fn get_mut(&mut self, index: usize) -> Option<&mut R> {
        self.slots
            .get_mut(index)
            .filter(|slot| slot.quarantine.is_none())
            .map(|slot| &mut slot.replica)
    }

    /// The in-service replicas with their indices, in replica order.
    pub(crate) fn healthy(&self) -> impl Iterator<Item = (usize, &R)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.quarantine.is_none())
            .map(|(index, slot)| (index, &slot.replica))
    }

    /// The in-service replicas, mutably, in replica order.
    pub(crate) fn healthy_mut(&mut self) -> impl Iterator<Item = &mut R> {
        self.slots
            .iter_mut()
            .filter(|slot| slot.quarantine.is_none())
            .map(|slot| &mut slot.replica)
    }

    /// Puts `replica` back in service as replica `index`.
    pub(crate) fn readmit(&mut self, index: usize, replica: R) {
        self.slots[index] = Slot {
            replica,
            quarantine: None,
        };
    }

    /// Feeds `chunk` — the elements from the set's position on — to every
    /// in-service replica, on up to `workers` threads.  Each replica is
    /// driven by one thread over the whole chunk, so results do not depend
    /// on `workers`.
    pub(crate) fn feed(&mut self, chunk: &[StreamElement], workers: usize)
    where
        R: Send,
    {
        if chunk.is_empty() {
            return;
        }
        let first = self.position;
        self.position += chunk.len() as u64;
        let replicas = self.slots.len();
        let per_worker = replicas.div_ceil(workers.clamp(1, replicas));
        let (mode, faults, retry) = (self.mode, &self.faults[..], &self.retry);
        let drive = move |offset: usize, group: &mut [Slot<R>]| {
            for (index, slot) in (offset..).zip(group) {
                if slot.quarantine.is_none() {
                    let routed = (first..)
                        .zip(chunk.iter().copied())
                        .filter(|&(_, element)| mode.takes(element, index, replicas));
                    slot.quarantine =
                        run_replica(&mut slot.replica, index, routed, faults, retry).err();
                }
            }
        };
        if per_worker == replicas {
            drive(0, &mut self.slots);
        } else {
            std::thread::scope(|scope| {
                for (group, slots) in self.slots.chunks_mut(per_worker).enumerate() {
                    scope.spawn(move || drive(group * per_worker, slots));
                }
            });
        }
    }

    /// The merged estimate over the in-service replicas.
    pub(crate) fn estimate(&self) -> f64 {
        let sum: f64 = self.estimates().sum();
        self.mode.merge(sum, self.healthy().count())
    }

    /// The in-service replicas' estimates, in replica order.
    fn estimates(&self) -> impl Iterator<Item = f64> + '_ {
        self.healthy()
            .map(|(_, replica)| replica.counter().estimate())
    }

    /// Replica-spread statistics over the in-service replicas — replicate
    /// mode only (partition replicas estimate disjoint shards, so their
    /// spread is not an error bar).  A degraded set's reduced K honestly
    /// widens the interval.
    pub(crate) fn summary(&self) -> Option<EnsembleSummary> {
        if self.mode != EnsembleMode::Replicate || self.healthy().next().is_none() {
            return None;
        }
        let summary = abacus_metrics::Summary::from_values(self.estimates());
        let std_dev = summary.std_dev();
        let std_err = std_dev / (summary.count() as f64).sqrt();
        Some(EnsembleSummary {
            mean: summary.mean(),
            std_dev,
            std_err,
            ci95_half_width: 1.96 * std_err,
        })
    }

    /// Total sampled edges across the in-service replicas.
    pub(crate) fn memory_edges(&self) -> usize {
        self.healthy()
            .map(|(_, replica)| replica.counter().memory_edges())
            .sum()
    }

    /// Replica counts plus one [`QuarantineRecord`] per quarantined replica.
    pub(crate) fn health(&self) -> HealthReport {
        let quarantined: Vec<QuarantineRecord> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(replica, slot)| {
                let (at_element, error) = slot.quarantine.as_ref()?;
                Some(QuarantineRecord {
                    replica,
                    at_element: *at_element,
                    reason: error.to_string(),
                })
            })
            .collect();
        HealthReport {
            total: self.slots.len(),
            healthy: self.slots.len() - quarantined.len(),
            quarantined,
        }
    }
}

/// Runs replica `index` over its routed `(global index, element)` pairs,
/// firing the faults armed for it on the way.  Returns the element and
/// error it failed on: a panic, injected or organic, or a persistence error
/// — an injected transient one only once it has exhausted the retry budget.
fn run_replica<R: Replica>(
    replica: &mut R,
    index: usize,
    routed: impl Iterator<Item = (u64, StreamElement)>,
    faults: &[ReplicaFault],
    retry: &RetryPolicy,
) -> Result<(), (u64, ReplicaError)> {
    let mut at = 0;
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), PersistError> {
        for (position, element) in routed {
            at = position;
            let armed = faults
                .iter()
                .find(|fault| fault.replica == index && fault.at == position);
            match armed.map(|fault| fault.kind) {
                None => replica.offer(element)?,
                Some(ReplicaFaultKind::Panic) => {
                    // lint:allow(panic-policy): deliberate fault injection — caught by the catch_unwind around this loop and turned into a quarantine
                    panic!("injected replica-worker panic at element {position}");
                }
                Some(ReplicaFaultKind::Io { failures }) => {
                    let mut remaining = failures;
                    with_retry(retry, |_| {
                        if remaining > 0 {
                            remaining -= 1;
                            return Err(PersistError::Io(std::io::Error::other(format!(
                                "injected transient replica I/O fault at element {position}"
                            ))));
                        }
                        replica.offer(element)
                    })?;
                }
            }
        }
        Ok(())
    }));
    match outcome {
        Ok(Ok(())) => Ok(()),
        Ok(Err(error)) => Err((at, ReplicaError::Persist(error.to_string()))),
        Err(caught) => Err((at, ReplicaError::Panicked(panic_message(caught)))),
    }
}

/// K estimator replicas driven as one [`ButterflyCounter`].
///
/// Replicas are built once, from per-replica specs whose seeds come from
/// [`derive_seed`], and live for the whole stream.  The single-element
/// [`process`](ButterflyCounter::process) path feeds them inline; the
/// pull-based [`process_source_chunked`](ButterflyCounter::process_source_chunked)
/// path stages one chunk at a time and fans it out to up to
/// [`fan_out_threads`](Ensemble::with_fan_out_threads) worker threads, each
/// worker owning a disjoint set of replicas for the duration of the chunk.
///
/// ```
/// use abacus_core::engine::{Ensemble, EnsembleMode, EstimatorSpec};
/// use abacus_core::ButterflyCounter;
/// use abacus_graph::Edge;
/// use abacus_stream::StreamElement;
///
/// let mut ensemble =
///     Ensemble::new(EstimatorSpec::abacus(64), 4, EnsembleMode::Replicate).unwrap();
/// for l in 0..2u32 {
///     for r in 0..2u32 {
///         ensemble.process(StreamElement::insert(Edge::new(l, r)));
///     }
/// }
/// // Budget covers the stream: all four replicas are exact, so the mean is too.
/// assert_eq!(ensemble.estimate(), 1.0);
/// assert_eq!(ensemble.replicas(), 4);
/// ```
///
/// # Fault containment
///
/// A replica that panics is quarantined — recorded in the [`HealthReport`],
/// excluded from every merge — and the ensemble keeps serving a degraded
/// estimate over the healthy replicas (see the module docs).
/// [`with_replica_faults`](Ensemble::with_replica_faults) arms deterministic
/// faults that exercise this path.
pub struct Ensemble {
    base: EstimatorSpec,
    set: ReplicaSet<Box<dyn ButterflyCounter + Send>>,
    fan_out_threads: usize,
}

impl std::fmt::Debug for Ensemble {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ensemble")
            .field("base", &self.base)
            .field("mode", &self.mode())
            .field("replicas", &self.replicas())
            .field("healthy", &self.healthy())
            .field("fan_out_threads", &self.fan_out_threads)
            .finish()
    }
}

impl Ensemble {
    /// Builds an ensemble of `replicas` copies of `base`, each constructed
    /// through the engine registry with seed `derive_seed(base.seed, i)`.
    ///
    /// Every replica gets the full per-replica budget `base.budget`; for a
    /// fixed *total* memory comparison, divide the budget before calling
    /// (`base.budget / replicas`).
    ///
    /// # Errors
    /// [`EngineError::ZeroReplicas`] if `replicas` is zero.
    pub fn new(
        base: EstimatorSpec,
        replicas: usize,
        mode: EnsembleMode,
    ) -> Result<Self, EngineError> {
        if replicas == 0 {
            return Err(EngineError::ZeroReplicas);
        }
        let replicas =
            (0..replicas as u64).map(|i| base.with_seed(derive_seed(base.seed, i)).build());
        Ok(Ensemble {
            base,
            set: ReplicaSet::new(mode, replicas, RetryPolicy::no_delay(), 0),
            fan_out_threads: 1,
        })
    }

    /// Returns the ensemble with injected replica faults armed.  A
    /// [`ReplicaFaultKind::Panic`] fault panics the replica's worker just
    /// before it would process the fault's element; a
    /// [`ReplicaFaultKind::Io`] fault injects that many transient failures
    /// through the bounded-retry layer, quarantining the replica only when
    /// the budget is exhausted.
    #[must_use]
    pub fn with_replica_faults(mut self, faults: Vec<ReplicaFault>) -> Self {
        self.set.arm(faults);
        self
    }

    /// Returns the ensemble with a different fan-out worker count for the
    /// chunked source driver (default 1 = inline).  Thread count never
    /// affects results, only wall time.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_fan_out_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "at least one fan-out thread is required");
        self.fan_out_threads = threads;
        self
    }

    /// Number of replicas K.
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.set.len()
    }

    /// The distribution mode.
    #[must_use]
    pub fn mode(&self) -> EnsembleMode {
        self.set.mode()
    }

    /// The base spec the replicas were derived from.
    #[must_use]
    pub fn spec(&self) -> EstimatorSpec {
        self.base
    }

    /// Read access to replica `index`, for introspection and parity tests
    /// (downcast through [`ButterflyCounter::as_any`]).  A quarantined
    /// replica's state is the state it failed in.
    #[must_use]
    pub fn replica(&self, index: usize) -> &dyn ButterflyCounter {
        &*self.set.slots[index].replica
    }

    /// Replicas currently in service.
    #[must_use]
    pub fn healthy(&self) -> usize {
        self.set.healthy().count()
    }

    /// True when at least one replica has been quarantined.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.healthy() < self.replicas()
    }

    /// The typed quarantine error of replica `index`, if it is out of
    /// service.
    #[must_use]
    pub fn quarantine_error(&self, index: usize) -> Option<&ReplicaError> {
        self.set.slots[index]
            .quarantine
            .as_ref()
            .map(|(_, error)| error)
    }

    /// Point-in-time health: replica counts plus one [`QuarantineRecord`]
    /// per out-of-service replica.
    #[must_use]
    pub fn health(&self) -> HealthReport {
        self.set.health()
    }

    /// The current per-replica estimates of the **healthy** replicas, in
    /// replica order.
    #[must_use]
    pub fn replica_estimates(&self) -> Vec<f64> {
        self.set.estimates().collect()
    }

    /// Replica-spread statistics over the healthy replicas — replicate mode
    /// only (`None` under partition, or when no replica is healthy).
    #[must_use]
    pub fn replicate_summary(&self) -> Option<EnsembleSummary> {
        self.set.summary()
    }
}

impl ButterflyCounter for Ensemble {
    fn process(&mut self, element: StreamElement) {
        self.set.feed(&[element], 1);
    }

    fn preferred_chunk(&self) -> usize {
        // Replicas are homogeneous; honour their staging preference so a
        // PARABACUS ensemble stages whole mini-batches per pull.
        self.replica(0).preferred_chunk()
    }

    fn process_source_chunked(
        &mut self,
        source: &mut dyn ElementSource,
        chunk: usize,
    ) -> Result<u64, StreamIoError> {
        assert!(chunk >= 1, "pull chunk must hold at least one element");
        let mut staged: Vec<StreamElement> = Vec::new();
        let mut total = 0u64;
        loop {
            staged.clear();
            while staged.len() < chunk {
                match source.next_element() {
                    Some(Ok(element)) => staged.push(element),
                    Some(Err(error)) => return Err(error),
                    None => break,
                }
            }
            total += staged.len() as u64;
            self.set.feed(&staged, self.fan_out_threads);
            if staged.len() < chunk {
                break; // the source is exhausted
            }
        }
        self.finish();
        Ok(total)
    }

    fn estimate(&self) -> f64 {
        self.set.estimate()
    }

    fn finish(&mut self) -> f64 {
        for replica in self.set.healthy_mut() {
            replica.finish();
        }
        self.set.estimate()
    }

    fn memory_edges(&self) -> usize {
        self.set.memory_edges()
    }

    fn name(&self) -> &'static str {
        match self.mode() {
            EnsembleMode::Replicate => "ENSEMBLE-replicate",
            EnsembleMode::Partition => "ENSEMBLE-partition",
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    /// One payload holding every replica's state as a length-prefixed
    /// section, so an ensemble checkpoints and recovers as a single unit —
    /// replica `i` restores to exactly the state of replica `i`, which keeps
    /// `derive_seed(base.seed, i)` streams aligned across a crash.
    fn save_state(&mut self) -> Result<Vec<u8>, PersistError> {
        if self.is_degraded() {
            // A combined snapshot of a degraded ensemble would freeze a
            // quarantined replica's broken state into the checkpoint chain.
            // Per-replica recovery is the supervisor's job (each replica
            // checkpoints in its own directory); the combined payload fails
            // closed instead.
            return Err(PersistError::Corrupt(
                "a degraded ensemble cannot take a combined snapshot; \
                 rejoin the quarantined replicas first"
                    .into(),
            ));
        }
        let mut enc = Encoder::new();
        enc.put_usize(self.replicas());
        enc.put_u8(match self.mode() {
            EnsembleMode::Replicate => 0,
            EnsembleMode::Partition => 1,
        });
        for replica in self.set.healthy_mut() {
            let section = replica.save_state()?;
            enc.put_bytes(&section);
        }
        Ok(enc.finish())
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), PersistError> {
        let mut dec = Decoder::new(state);
        let replicas = dec.get_usize()?;
        if replicas != self.replicas() {
            return Err(PersistError::Corrupt(format!(
                "ensemble snapshot holds {replicas} replicas, this ensemble has {}",
                self.replicas()
            )));
        }
        let mode = match dec.get_u8()? {
            0 => EnsembleMode::Replicate,
            1 => EnsembleMode::Partition,
            other => {
                return Err(PersistError::Corrupt(format!(
                    "invalid ensemble mode byte {other}"
                )))
            }
        };
        if mode != self.mode() {
            return Err(PersistError::Corrupt(
                "ensemble snapshot was written under a different distribution mode".into(),
            ));
        }
        for slot in &mut self.set.slots {
            let section = dec.get_bytes()?;
            slot.replica.restore_state(section)?;
        }
        dec.expect_end()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EstimatorKind;
    use abacus_graph::Edge;
    use abacus_stream::generators::random::uniform_bipartite;
    use abacus_stream::{inject_deletions_fast, DeletionConfig, SliceSource};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload(edges: usize) -> Vec<StreamElement> {
        let base = uniform_bipartite(60, 60, edges, &mut StdRng::seed_from_u64(5));
        inject_deletions_fast(
            &base,
            DeletionConfig::new(0.2),
            &mut StdRng::seed_from_u64(6),
        )
    }

    #[test]
    fn mode_names_parse_and_display() {
        assert_eq!(
            EnsembleMode::parse("replicate").unwrap(),
            EnsembleMode::Replicate
        );
        assert_eq!(
            EnsembleMode::parse("PARTITION").unwrap(),
            EnsembleMode::Partition
        );
        assert_eq!(
            EnsembleMode::parse("shard").unwrap_err(),
            EnsembleMode::EXPECTED_NAMES
        );
        assert_eq!(EnsembleMode::Replicate.to_string(), "replicate");
        assert_eq!(EnsembleMode::default(), EnsembleMode::Replicate);
    }

    #[test]
    fn replicate_estimate_is_the_mean_of_the_replicas() {
        let stream = workload(800);
        let mut ensemble = Ensemble::new(
            EstimatorSpec::abacus(128).with_seed(3),
            4,
            EnsembleMode::Replicate,
        )
        .unwrap();
        ensemble.process_stream(&stream);
        let estimates = ensemble.replica_estimates();
        let mean = estimates.iter().sum::<f64>() / estimates.len() as f64;
        assert_eq!(ensemble.estimate().to_bits(), mean.to_bits());
        let summary = ensemble.replicate_summary().unwrap();
        assert_eq!(summary.mean.to_bits(), mean.to_bits());
        assert!(summary.std_dev >= 0.0);
        assert!((summary.ci95_half_width - 1.96 * summary.std_err).abs() < 1e-12);
        // Replicas drew different seeds, so (with a sub-covering budget)
        // their trajectories differ.
        assert!(
            estimates.windows(2).any(|w| w[0] != w[1]),
            "replicas appear seed-correlated: {estimates:?}"
        );
    }

    #[test]
    fn partition_routes_every_element_to_exactly_one_shard() {
        let stream = workload(600);
        let mut ensemble =
            Ensemble::new(EstimatorSpec::exact(), 3, EnsembleMode::Partition).unwrap();
        ensemble.process_stream(&stream);
        // Shards partition the stream: element counts over the exact
        // replicas sum to the stream length.
        let processed: u64 = (0..3)
            .map(|i| {
                ensemble
                    .replica(i)
                    .as_any()
                    .unwrap()
                    .downcast_ref::<crate::ExactCounter>()
                    .unwrap()
                    .stats()
                    .elements
            })
            .sum();
        assert_eq!(processed, stream.len() as u64);
        // And the ensemble estimate is the sum of the shard counts.
        let sum: f64 = ensemble.replica_estimates().iter().sum();
        assert_eq!(ensemble.estimate().to_bits(), sum.to_bits());
        assert!(ensemble.replicate_summary().is_none());
    }

    #[test]
    fn partition_deletions_follow_their_insertions() {
        // Insert then delete the same edge: both must land on one shard, so
        // every shard's final graph is empty.
        let mut ensemble =
            Ensemble::new(EstimatorSpec::exact(), 4, EnsembleMode::Partition).unwrap();
        let mut stream = Vec::new();
        for l in 0..20u32 {
            for r in 0..5u32 {
                stream.push(StreamElement::insert(Edge::new(l, r)));
            }
        }
        for element in &stream.clone() {
            stream.push(StreamElement::delete(element.edge));
        }
        ensemble.process_stream(&stream);
        assert_eq!(ensemble.estimate(), 0.0);
        assert_eq!(ensemble.memory_edges(), 0);
    }

    #[test]
    fn fan_out_threads_do_not_change_results() {
        let stream = workload(900);
        for mode in [EnsembleMode::Replicate, EnsembleMode::Partition] {
            let fingerprint = |threads: usize| {
                let mut ensemble = Ensemble::new(EstimatorSpec::abacus(100).with_seed(11), 3, mode)
                    .unwrap()
                    .with_fan_out_threads(threads);
                ensemble
                    .process_source_chunked(&mut SliceSource::new(&stream), 64)
                    .unwrap();
                (
                    ensemble.estimate().to_bits(),
                    ensemble
                        .replica_estimates()
                        .iter()
                        .map(|e| e.to_bits())
                        .collect::<Vec<_>>(),
                    ensemble.memory_edges(),
                )
            };
            let single = fingerprint(1);
            for threads in [2usize, 3, 8] {
                assert_eq!(fingerprint(threads), single, "{mode} threads {threads}");
            }
        }

        // Fault-armed: replica 0 panics, replica 1 exhausts its retry budget
        // and replica 2 absorbs two transient failures, each at an element
        // routed to it, in chunks that straddle the fault points.
        for mode in [EnsembleMode::Replicate, EnsembleMode::Partition] {
            let routed_at = |replica: usize, nth: usize| {
                (0u64..)
                    .zip(&stream)
                    .filter(|&(_, &element)| mode.takes(element, replica, 3))
                    .nth(nth)
                    .expect("the stream routes enough elements to every replica")
                    .0
            };
            let faults = vec![
                ReplicaFault {
                    replica: 0,
                    at: routed_at(0, 70),
                    kind: ReplicaFaultKind::Panic,
                },
                ReplicaFault {
                    replica: 1,
                    at: routed_at(1, 90),
                    kind: ReplicaFaultKind::Io { failures: 5 },
                },
                ReplicaFault {
                    replica: 2,
                    at: routed_at(2, 110),
                    kind: ReplicaFaultKind::Io { failures: 2 },
                },
            ];
            let fingerprint = |threads: usize| {
                let mut ensemble = Ensemble::new(EstimatorSpec::abacus(100).with_seed(11), 3, mode)
                    .unwrap()
                    .with_replica_faults(faults.clone())
                    .with_fan_out_threads(threads);
                ensemble
                    .process_source_chunked(&mut SliceSource::new(&stream), 64)
                    .unwrap();
                (
                    ensemble.estimate().to_bits(),
                    ensemble
                        .replica_estimates()
                        .iter()
                        .map(|e| e.to_bits())
                        .collect::<Vec<_>>(),
                    ensemble.memory_edges(),
                    ensemble.health(),
                )
            };
            let single = fingerprint(1);
            let health = &single.3;
            assert_eq!((health.healthy, health.total), (1, 3), "{mode}");
            let quarantined: Vec<(usize, u64)> = health
                .quarantined
                .iter()
                .map(|record| (record.replica, record.at_element))
                .collect();
            assert_eq!(quarantined, [(0, faults[0].at), (1, faults[1].at)]);
            for threads in [2usize, 3] {
                assert_eq!(
                    fingerprint(threads),
                    single,
                    "{mode} faults threads {threads}"
                );
            }
        }
    }

    /// Counts elements and panics on the `limit`-th one.
    struct PanicsAt {
        limit: u64,
        seen: u64,
    }

    impl ButterflyCounter for PanicsAt {
        fn process(&mut self, _element: StreamElement) {
            self.seen += 1;
            assert!(self.seen < self.limit, "organic replica failure");
        }

        fn estimate(&self) -> f64 {
            self.seen as f64
        }

        fn memory_edges(&self) -> usize {
            0
        }

        fn name(&self) -> &'static str {
            "PANICS-AT"
        }
    }

    #[test]
    fn organic_replica_panics_are_quarantined_without_a_fault_plan() {
        let stream = workload(100);
        let replicas: Vec<Box<dyn ButterflyCounter + Send>> = vec![
            Box::new(PanicsAt {
                limit: u64::MAX,
                seen: 0,
            }),
            Box::new(PanicsAt { limit: 5, seen: 0 }),
        ];
        let mut set = ReplicaSet::new(
            EnsembleMode::Replicate,
            replicas,
            RetryPolicy::no_delay(),
            0,
        );
        set.feed(&stream[..3], 2);
        set.feed(&stream[3..], 2);
        let health = set.health();
        assert_eq!((health.healthy, health.total), (1, 2));
        let record = &health.quarantined[0];
        assert_eq!((record.replica, record.at_element), (1, 4));
        assert!(
            record.reason.contains("organic replica failure"),
            "{record:?}"
        );
        // The merge reads the healthy replica alone.
        assert_eq!(set.estimate(), stream.len() as f64);
        assert!(set.get(1).is_none());
    }

    #[test]
    fn ensemble_drives_parabacus_replicas_with_their_preferred_chunk() {
        let ensemble = Ensemble::new(
            EstimatorSpec::parabacus(64)
                .with_batch_size(77)
                .with_threads(1),
            2,
            EnsembleMode::Replicate,
        )
        .unwrap();
        assert_eq!(ensemble.preferred_chunk(), 77);
        assert_eq!(ensemble.spec().kind, EstimatorKind::ParAbacus);
        assert_eq!(ensemble.name(), "ENSEMBLE-replicate");
    }

    #[test]
    fn zero_replicas_is_a_typed_error() {
        assert_eq!(
            Ensemble::new(EstimatorSpec::abacus(64), 0, EnsembleMode::Replicate).unwrap_err(),
            EngineError::ZeroReplicas
        );
    }

    #[test]
    fn injected_panic_quarantines_the_replica_and_serving_degrades() {
        let stream = workload(600);
        let fault_at = 250u64;
        let mut ensemble = Ensemble::new(
            EstimatorSpec::abacus(128).with_seed(3),
            3,
            EnsembleMode::Replicate,
        )
        .unwrap()
        .with_replica_faults(vec![ReplicaFault {
            replica: 1,
            at: fault_at,
            kind: ReplicaFaultKind::Panic,
        }]);
        ensemble.process_stream(&stream);
        assert!(ensemble.is_degraded());
        assert_eq!(ensemble.healthy(), 2);
        let health = ensemble.health();
        assert_eq!(health.total, 3);
        assert_eq!(health.healthy, 2);
        assert_eq!(health.quarantined.len(), 1);
        assert_eq!(health.quarantined[0].replica, 1);
        assert_eq!(health.quarantined[0].at_element, fault_at);
        assert!(matches!(
            ensemble.quarantine_error(1),
            Some(ReplicaError::Panicked(_))
        ));
        // Degraded serving: mean and summary over the two healthy replicas.
        let estimates = ensemble.replica_estimates();
        assert_eq!(estimates.len(), 2);
        let mean = estimates.iter().sum::<f64>() / 2.0;
        assert_eq!(ensemble.estimate().to_bits(), mean.to_bits());
        let summary = ensemble.replicate_summary().unwrap();
        assert_eq!(summary.mean.to_bits(), mean.to_bits());
        // The healthy replicas are bit-identical to the same replicas of an
        // ensemble that never saw a fault.
        let mut reference = Ensemble::new(
            EstimatorSpec::abacus(128).with_seed(3),
            3,
            EnsembleMode::Replicate,
        )
        .unwrap();
        reference.process_stream(&stream);
        for index in [0usize, 2] {
            assert_eq!(
                ensemble.replica(index).estimate().to_bits(),
                reference.replica(index).estimate().to_bits(),
                "healthy replica {index} diverged"
            );
        }
        // And a combined snapshot of the degraded ensemble fails closed.
        assert!(matches!(
            ensemble.save_state(),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn transient_io_faults_within_budget_are_absorbed() {
        let stream = workload(500);
        let run = |failures: u32| {
            let mut ensemble = Ensemble::new(
                EstimatorSpec::abacus(100).with_seed(7),
                2,
                EnsembleMode::Replicate,
            )
            .unwrap()
            .with_replica_faults(vec![ReplicaFault {
                replica: 0,
                at: 100,
                kind: ReplicaFaultKind::Io { failures },
            }]);
            ensemble.process_stream(&stream);
            ensemble
        };
        // Two transient failures fit the 3-attempt budget: absorbed, and the
        // run is bit-identical to a fault-free one.
        let absorbed = run(2);
        assert!(!absorbed.is_degraded());
        let clean = run(0);
        assert_eq!(absorbed.estimate().to_bits(), clean.estimate().to_bits());
        // Five failures exhaust the budget: quarantined with a typed
        // persistence error.
        let exhausted = run(5);
        assert!(exhausted.is_degraded());
        assert!(matches!(
            exhausted.quarantine_error(0),
            Some(ReplicaError::Persist(_))
        ));
    }

    #[test]
    fn partition_mode_quarantine_drops_only_the_failed_shard() {
        let stream = workload(700);
        // Arm the panic on the first element that actually routes to shard 2
        // (routing is a pure function of the edge, mirrored here).
        let fault_at = stream
            .iter()
            .position(|e| splitmix64(e.edge.key().0) % 3 == 2)
            .expect("some element routes to shard 2") as u64;
        let mut ensemble = Ensemble::new(EstimatorSpec::exact(), 3, EnsembleMode::Partition)
            .unwrap()
            .with_replica_faults(vec![ReplicaFault {
                replica: 2,
                at: fault_at,
                kind: ReplicaFaultKind::Panic,
            }]);
        ensemble.process_stream(&stream);
        assert!(ensemble.is_degraded());
        assert_eq!(ensemble.health().quarantined[0].at_element, fault_at);
        // The healthy shards match a fault-free reference bit-for-bit, and
        // the degraded estimate is their partial sum.
        let mut reference =
            Ensemble::new(EstimatorSpec::exact(), 3, EnsembleMode::Partition).unwrap();
        reference.process_stream(&stream);
        for index in [0usize, 1] {
            assert_eq!(
                ensemble.replica(index).estimate().to_bits(),
                reference.replica(index).estimate().to_bits()
            );
        }
        let partial: f64 = (0..2).map(|i| reference.replica(i).estimate()).sum();
        assert_eq!(ensemble.estimate().to_bits(), partial.to_bits());
    }
}
