//! [`EnsembleSupervisor`]: a durable ensemble whose replicas checkpoint
//! independently, keep serving degraded when one fails, and rejoin
//! bit-exactly.
//!
//! # Layout
//!
//! ```text
//! <dir>/
//!   MANIFEST                 top-level ensemble manifest (spec, K, mode)
//!   wal-...abwl              the ensemble log: every stream element, in order
//!   COMMITTED                ensemble watermark (elements durably sealed)
//!   replica-0/               replica 0's own Checkpointer directory
//!     MANIFEST  snap-...  wal-...  COMMITTED
//!   replica-1/ ...
//! ```
//!
//! Each replica is a [`Checkpointer`] (derived seed, same cadence) in its
//! own subdirectory.  The supervisor appends every stream element to an
//! **ensemble-level WAL** before the replicas see it and commits that log's
//! watermark at the checkpoint cadence.  The log is the rejoin substrate and
//! is never pruned, so a replica can catch up at any lag.  (Disk cost: the
//! full stream in ~2 bytes/element varint encoding.)
//!
//! # Fault containment
//!
//! The replicas run in the same replica set as an in-memory
//! [`Ensemble`](crate::engine::Ensemble), so routing, panic containment,
//! injected faults, quarantine and the merge are shared with it.  A
//! replica that panics or exhausts its retry budget is quarantined: its
//! directory stays recoverable, the fault is recorded as a typed
//! [`ReplicaError`](crate::engine::ReplicaError), and the other replicas
//! keep ingesting and serving.
//!
//! # Bit-exact rejoin
//!
//! [`rejoin`](EnsembleSupervisor::rejoin) and
//! [`resume`](EnsembleSupervisor::resume) recover a replica from its own
//! directory (newest valid snapshot plus its own WAL replay, re-performing
//! cadence checkpoints) and then catch it up by one rule in both modes: it
//! is offered the ensemble log's elements routed to it, past those it
//! already holds, through the same `Checkpointer::offer` path live traffic
//! uses.  A failed-recovered-rejoined replica is therefore bit-identical
//! (estimate bits, `memory_edges`, serialized state) to a replica that never
//! failed — the property `tests/fault_tolerance.rs` asserts across fault
//! points, estimator kinds, and both ensemble modes.

use crate::counter::ButterflyCounter;
use crate::engine::checkpoint::{Checkpointer, RunManifest};
use crate::engine::ensemble::{Replica, ReplicaSet};
use crate::engine::{EnsembleMode, EnsembleSummary};
use abacus_graph::persist::PersistError;
use abacus_metrics::HealthReport;
use abacus_sampling::derive_seed;
use abacus_stream::fault::ReplicaFault;
use abacus_stream::persist::{
    read_watermark, replay_wal, seal_tail, write_watermark, write_watermark_with_retry,
    RetryPolicy, WalWriter,
};
use abacus_stream::StreamElement;
use std::path::{Path, PathBuf};

impl Replica for Checkpointer {
    fn offer(&mut self, element: StreamElement) -> Result<(), PersistError> {
        Checkpointer::offer(self, element)
    }

    fn counter(&self) -> &dyn ButterflyCounter {
        self.estimator()
    }
}

/// What a rejoin (or resume-time catch-up) did for one replica.
#[derive(Debug)]
pub struct ReplicaRecovery {
    /// The replica index.
    pub replica: usize,
    /// Element position of the snapshot the replica restored from.
    pub snapshot_elements: u64,
    /// Elements replayed from the replica's own WAL.
    pub replayed: u64,
    /// Elements caught up from the ensemble log on top of the replica's own
    /// durable state.
    pub caught_up: u64,
}

/// What [`EnsembleSupervisor::resume`] reconstructed.
#[derive(Debug)]
pub struct SupervisorRecovery {
    /// The recovered supervisor, all replicas healthy and caught up to the
    /// end of the durable ensemble log.
    pub supervisor: EnsembleSupervisor,
    /// Per-replica recovery detail, in replica order.
    pub replicas: Vec<ReplicaRecovery>,
    /// Whether a torn tail was dropped from the ensemble log.
    pub dropped_torn_tail: bool,
    /// Whether the ensemble watermark was missing/corrupt and was rebuilt
    /// from the durable log.
    pub watermark_rebuilt: bool,
}

/// Drives K per-replica [`Checkpointer`]s plus an ensemble-level WAL, with
/// fault containment, quarantine, degraded serving, and WAL catch-up
/// rejoin.  See the module docs for the full lifecycle.
pub struct EnsembleSupervisor {
    dir: PathBuf,
    manifest: RunManifest,
    set: ReplicaSet<Checkpointer>,
    wal: Option<WalWriter>,
}

impl std::fmt::Debug for EnsembleSupervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnsembleSupervisor")
            .field("dir", &self.dir)
            .field("mode", &self.mode())
            .field("replicas", &self.replicas())
            .field("healthy", &self.healthy())
            .field("offered", &self.offered())
            .finish()
    }
}

impl EnsembleSupervisor {
    /// Initializes a supervised ensemble directory: the top-level manifest
    /// and ensemble WAL, plus one [`Checkpointer`] per replica under
    /// `replica-{i}/`, each with seed `derive_seed(base.seed, i)` and the
    /// manifest's checkpoint cadence.
    ///
    /// # Errors
    /// [`PersistError::Corrupt`] when `manifest.ensemble` is `None`, or any
    /// [`PersistError`] from the filesystem.
    pub fn create(dir: impl Into<PathBuf>, manifest: RunManifest) -> Result<Self, PersistError> {
        let dir = dir.into();
        let Some((replicas, mode)) = manifest.ensemble else {
            return Err(PersistError::Corrupt(
                "the supervisor needs an ensemble manifest (replicas + mode)".into(),
            ));
        };
        if !manifest.views.is_empty() {
            return Err(PersistError::Corrupt(
                "supervised ensembles do not take circuit views".into(),
            ));
        }
        manifest.write(&dir)?;
        let wal = WalWriter::create(&dir, 0)?;
        write_watermark(&dir, 0)?;
        let checkpointers = (0..replicas)
            .map(|index| {
                let spec = manifest
                    .spec
                    .with_seed(derive_seed(manifest.spec.seed, index as u64));
                let replica_manifest = RunManifest::new(spec, manifest.checkpoint_every);
                Checkpointer::create(replica_dir(&dir, index), replica_manifest)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(EnsembleSupervisor {
            dir,
            manifest,
            set: ReplicaSet::new(mode, checkpointers, RetryPolicy::default(), 0),
            wal: Some(wal),
        })
    }

    /// Returns the supervisor with injected replica faults armed
    /// ([`ReplicaFaultKind::Panic`](abacus_stream::fault::ReplicaFaultKind::Panic)
    /// panics the replica's worker before it processes the fault's element;
    /// [`ReplicaFaultKind::Io`](abacus_stream::fault::ReplicaFaultKind::Io)
    /// injects that many transient persistence failures through the retry
    /// layer).
    #[must_use]
    pub fn with_replica_faults(mut self, faults: Vec<ReplicaFault>) -> Self {
        self.set.arm(faults);
        self
    }

    /// Appends `element` to the ensemble log, feeds it to every in-service
    /// replica the mode routes it to, and commits the ensemble watermark at
    /// the checkpoint cadence.  A replica fault quarantines that replica;
    /// the call still succeeds.
    ///
    /// # Errors
    /// [`PersistError`] only for *ensemble-level* failures (the ensemble
    /// log or watermark) that survive bounded retry.
    pub fn offer(&mut self, element: StreamElement) -> Result<(), PersistError> {
        self.wal
            .as_mut()
            .ok_or(PersistError::Invariant(
                "the ensemble WAL is open until finish()",
            ))?
            .append_with_retry(element, &RetryPolicy::default())?;
        self.set.feed(&[element], 1);
        let every = self.manifest.checkpoint_every;
        if every > 0 && self.offered().is_multiple_of(every) {
            self.commit()?;
        }
        Ok(())
    }

    /// Seals + rotates the ensemble log and advances the ensemble watermark
    /// to the current position (with bounded retry on the rename).
    fn commit(&mut self) -> Result<u64, PersistError> {
        let wal = self.wal.take().ok_or(PersistError::Invariant(
            "the ensemble WAL is open until finish()",
        ))?;
        self.wal = Some(wal.rotate()?);
        write_watermark_with_retry(&self.dir, self.offered(), &RetryPolicy::default())?;
        Ok(self.offered())
    }

    /// Rebuilds quarantined replica `index` from its own checkpoint
    /// directory, catches it up from the ensemble log to the supervisor's
    /// current position, and re-admits it.
    ///
    /// # Errors
    /// [`PersistError::Corrupt`] when the replica is not quarantined, or
    /// any [`PersistError`] from recovery/catch-up.
    pub fn rejoin(&mut self, index: usize) -> Result<ReplicaRecovery, PersistError> {
        if self.set.get(index).is_some() {
            return Err(PersistError::Corrupt(format!(
                "replica {index} is not quarantined"
            )));
        }
        // Seal the open ensemble segment so catch-up can read the whole log,
        // and advance the watermark — this is a commit point.
        self.commit()?;
        let log = replay_wal(&self.dir, 0)?;
        let (checkpointer, recovery) = recover_replica(
            &self.dir,
            self.mode(),
            self.replicas(),
            index,
            &log.elements,
        )?;
        self.set.readmit(index, checkpointer);
        Ok(recovery)
    }

    /// Recovers a supervised ensemble directory after a crash (or after a
    /// degraded run completed): seals the ensemble log, resumes every
    /// replica from its own directory, catches each up to the end of the
    /// durable log, and re-opens the ensemble WAL.  All replicas come back
    /// healthy.
    ///
    /// A missing or corrupt ensemble watermark is rebuilt from the durable
    /// log (flagged, never silently double-replayed); a watermark *ahead*
    /// of the durable log is a [`PersistError::Gap`].
    ///
    /// # Errors
    /// Any [`PersistError`] from the manifest, the ensemble log chain, or a
    /// replica's recovery.
    pub fn resume(dir: impl Into<PathBuf>) -> Result<SupervisorRecovery, PersistError> {
        let dir = dir.into();
        let manifest = RunManifest::read(&dir)?;
        let Some((replicas, mode)) = manifest.ensemble else {
            return Err(PersistError::Corrupt(
                "this checkpoint directory does not describe a supervised ensemble".into(),
            ));
        };
        let (watermark, mut watermark_rebuilt) = match read_watermark(&dir) {
            Ok(Some(committed)) => (Some(committed), false),
            Ok(None) => (None, true),
            Err(PersistError::Io(error)) => return Err(PersistError::Io(error)),
            Err(_) => (None, true), // corrupt: rebuild from the durable log
        };
        let dropped_torn_tail = seal_tail(&dir)?;
        let log = replay_wal(&dir, 0)?;
        let durable_end = log.next_seq;
        if let Some(committed) = watermark {
            if committed > durable_end {
                // The watermark claims more than the log holds: elements are
                // irrecoverably missing — fail closed rather than serve a
                // silently shortened stream.
                return Err(PersistError::Gap {
                    expected: committed,
                    found: durable_end,
                });
            }
            if committed < durable_end {
                watermark_rebuilt = true; // heal the stale watermark below
            }
        }

        let mut checkpointers = Vec::with_capacity(replicas);
        let mut recoveries = Vec::with_capacity(replicas);
        for index in 0..replicas {
            let (checkpointer, recovery) =
                recover_replica(&dir, mode, replicas, index, &log.elements)?;
            checkpointers.push(checkpointer);
            recoveries.push(recovery);
        }
        if watermark_rebuilt {
            write_watermark(&dir, durable_end)?;
        }
        let wal = WalWriter::create(&dir, durable_end)?;
        Ok(SupervisorRecovery {
            supervisor: EnsembleSupervisor {
                dir,
                manifest,
                set: ReplicaSet::new(mode, checkpointers, RetryPolicy::default(), durable_end),
                wal: Some(wal),
            },
            replicas: recoveries,
            dropped_torn_tail: dropped_torn_tail || log.dropped_torn_tail,
            watermark_rebuilt,
        })
    }

    /// Finalizes the run: finishes every healthy replica's checkpointer
    /// (draining buffered work + final per-replica checkpoint), seals the
    /// ensemble log, advances the ensemble watermark to the stream end, and
    /// returns the merged (possibly degraded) estimate.  The supervisor can
    /// not ingest after `finish`; quarantined replicas rejoin through
    /// [`resume`](EnsembleSupervisor::resume).
    ///
    /// # Errors
    /// Any [`PersistError`] from a healthy replica's final checkpoint or
    /// the ensemble log.
    pub fn finish(&mut self) -> Result<f64, PersistError> {
        for checkpointer in self.set.healthy_mut() {
            checkpointer.finish()?;
        }
        if let Some(wal) = self.wal.take() {
            wal.seal()?;
        }
        write_watermark_with_retry(&self.dir, self.offered(), &RetryPolicy::default())?;
        Ok(self.estimate())
    }

    /// The merged estimate over the healthy replicas (mean under replicate,
    /// sum under partition; 0.0 when everything is quarantined).
    #[must_use]
    pub fn estimate(&self) -> f64 {
        self.set.estimate()
    }

    /// `(replica index, estimate)` for every healthy replica, in order.
    #[must_use]
    pub fn replica_estimates(&self) -> Vec<(usize, f64)> {
        self.set
            .healthy()
            .map(|(index, checkpointer)| (index, checkpointer.estimator().estimate()))
            .collect()
    }

    /// Replica-spread statistics over the healthy replicas — replicate mode
    /// only.  Under degradation the reduced K honestly widens the CI.
    #[must_use]
    pub fn replicate_summary(&self) -> Option<EnsembleSummary> {
        self.set.summary()
    }

    /// Total sampled edges across the healthy replicas.
    #[must_use]
    pub fn memory_edges(&self) -> usize {
        self.set.memory_edges()
    }

    /// Read access to replica `index`'s live estimator (`None` while
    /// quarantined).
    #[must_use]
    pub fn replica(&self, index: usize) -> Option<&dyn ButterflyCounter> {
        self.set.get(index).map(Checkpointer::estimator)
    }

    /// Mutable access to replica `index`'s checkpointer (`None` while
    /// quarantined) — for parity tests that serialize replica state.
    pub fn replica_checkpointer_mut(&mut self, index: usize) -> Option<&mut Checkpointer> {
        self.set.get_mut(index)
    }

    /// Replicas currently in service.
    #[must_use]
    pub fn healthy(&self) -> usize {
        self.set.healthy().count()
    }

    /// True when at least one replica is quarantined.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.healthy() < self.replicas()
    }

    /// Point-in-time health: counts plus per-replica quarantine records.
    #[must_use]
    pub fn health(&self) -> HealthReport {
        self.set.health()
    }

    /// Total replica count K.
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.set.len()
    }

    /// The distribution mode.
    #[must_use]
    pub fn mode(&self) -> EnsembleMode {
        self.set.mode()
    }

    /// Elements offered so far.
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.set.position()
    }

    /// The supervised checkpoint directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The top-level manifest.
    #[must_use]
    pub fn manifest(&self) -> &RunManifest {
        &self.manifest
    }
}

/// Resumes replica `index` of `replicas` from its own directory under `dir`
/// and offers it the elements of the ensemble log `log` that `mode` routes
/// to it, past those it already holds, through the same
/// `Checkpointer::offer` path live traffic uses (cadence checkpoints
/// re-performed ⇒ bit-exact alignment).
///
/// # Errors
/// Any [`PersistError`] from the replica's recovery or catch-up, and
/// [`PersistError::Gap`] when the replica holds more elements than the log
/// routes to it.
fn recover_replica(
    dir: &Path,
    mode: EnsembleMode,
    replicas: usize,
    index: usize,
    log: &[StreamElement],
) -> Result<(Checkpointer, ReplicaRecovery), PersistError> {
    let recovery = Checkpointer::resume(replica_dir(dir, index))?;
    let mut checkpointer = recovery.checkpointer;
    let held = checkpointer.elements();
    let mut routed = 0u64;
    for &element in log
        .iter()
        .filter(|&&element| mode.takes(element, index, replicas))
    {
        routed += 1;
        if routed > held {
            checkpointer.offer(element)?;
        }
    }
    if routed < held {
        // The replica holds elements the durable log lost: fail closed.
        return Err(PersistError::Gap {
            expected: held,
            found: routed,
        });
    }
    let recovery = ReplicaRecovery {
        replica: index,
        snapshot_elements: recovery.snapshot_elements,
        replayed: recovery.replayed,
        caught_up: routed - held,
    };
    Ok((checkpointer, recovery))
}

/// The checkpoint subdirectory of replica `index`.
#[must_use]
pub fn replica_dir(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("replica-{index}"))
}

/// Whether `dir` holds a *supervised* ensemble layout (top-level ensemble
/// manifest plus per-replica subdirectories), as opposed to a combined
/// single-checkpointer ensemble run.
#[must_use]
pub fn is_supervised_dir(dir: &Path) -> bool {
    RunManifest::read(dir).is_ok_and(|m| m.ensemble.is_some()) && replica_dir(dir, 0).is_dir()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EstimatorSpec;
    use abacus_stream::persist::{list_segments, WATERMARK_FILE};
    use abacus_stream::{inject_deletions_fast, DeletionConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A replica that holds more elements than the ensemble log routes to
    /// it cannot be caught up: resume fails closed in both modes instead of
    /// serving replicas ahead of the log.
    #[test]
    fn catch_up_fails_closed_when_a_replica_is_ahead_of_the_log() {
        let base = abacus_stream::generators::random::uniform_bipartite(
            40,
            40,
            300,
            &mut StdRng::seed_from_u64(3),
        );
        let stream = inject_deletions_fast(
            &base,
            DeletionConfig::new(0.1),
            &mut StdRng::seed_from_u64(4),
        );
        for mode in [EnsembleMode::Replicate, EnsembleMode::Partition] {
            let dir = std::env::temp_dir()
                .join("abacus-supervisor-tests")
                .join(format!("ahead-{mode}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let manifest = RunManifest::new(EstimatorSpec::abacus(64).with_seed(2), 100)
                .with_ensemble(3, mode);
            let mut supervisor = EnsembleSupervisor::create(&dir, manifest).unwrap();
            for &element in &stream {
                supervisor.offer(element).unwrap();
            }
            supervisor.finish().unwrap();
            drop(supervisor);
            // Lose every ensemble-log segment after the first, and the
            // watermark that would have caught the loss first.
            for segment in list_segments(&dir).unwrap().iter().skip(1) {
                std::fs::remove_file(segment).unwrap();
            }
            std::fs::remove_file(dir.join(WATERMARK_FILE)).unwrap();
            assert!(
                matches!(
                    EnsembleSupervisor::resume(&dir),
                    Err(PersistError::Gap { .. })
                ),
                "{mode}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
