//! Durable checkpointing: versioned `ABSNAP1` snapshots, the `ABWL1` WAL,
//! and the [`Checkpointer`] driver that ties them to a live estimator.
//!
//! A checkpoint directory contains four kinds of files:
//!
//! | file                         | format    | contents                                  |
//! |------------------------------|-----------|-------------------------------------------|
//! | `MANIFEST`                   | `ABMF1`   | the [`RunManifest`] — spec, views, cadence |
//! | `snap-{elements:020}.absnap` | `ABSNAP1` | estimator state after `elements` elements  |
//! | `wal-{first_seq:020}.abwl`   | `ABWL1`   | elements `first_seq..` since a checkpoint  |
//! | `COMMITTED`                  | `ABWM1`   | watermark: latest durable snapshot position|
//!
//! The protocol: every element is appended to the WAL *before* it is
//! processed; every `checkpoint_every` elements the estimator serializes
//! itself into a fresh snapshot, the WAL rotates to a new segment, the
//! watermark advances, and older snapshots/segments are pruned (the last two
//! snapshots are kept so a torn newest snapshot falls back cleanly).
//!
//! Recovery ([`Checkpointer::resume`]) is *load latest valid snapshot, then
//! replay the WAL from its position*.  During replay the checkpointer
//! re-performs checkpoints at every cadence multiple — this both heals any
//! snapshot lost to the crash and, crucially, keeps PARABACUS mini-batch
//! boundaries aligned with the uninterrupted run (`save_state` flushes, so a
//! checkpoint is also a batch boundary), which is what makes recovery
//! **bit-identical**, not merely statistically equivalent.

use crate::circuit::ViewKind;
use crate::config::SnapshotMode;
use crate::counter::ButterflyCounter;
use crate::engine::{EnsembleMode, EstimatorKind, EstimatorSpec};
use abacus_graph::persist::{crc32, format, Decoder, Encoder, PersistError};
use abacus_stream::persist::{
    prune_segments, read_watermark, replay_wal, seal_tail, write_watermark,
    write_watermark_with_retry, RetryPolicy, WalWriter,
};
use abacus_stream::StreamElement;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic header of a snapshot file (from the persist-format registry).
pub const SNAPSHOT_MAGIC: &[u8] = format::SNAPSHOT.magic();
/// The version byte following the magic (bumped on layout changes).
pub const SNAPSHOT_VERSION: u8 = format::SNAPSHOT.version;
/// File name of the run-manifest file inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// Magic header of the manifest file (from the persist-format registry).
pub const MANIFEST_MAGIC: &[u8] = format::MANIFEST.magic();
/// Snapshots kept per directory (the newest, plus one fallback).
pub const SNAPSHOTS_KEPT: usize = 2;

/// Section tag: snapshot metadata (the element position).
const SECTION_META: u8 = 1;
/// Section tag: the estimator's `save_state` payload.
const SECTION_STATE: u8 = 2;

/// Word a manifest writes after the estimator kind to mark its layout.
/// Older manifests put the budget there, which is never `usize::MAX` (no
/// sample that large fits in memory), and carried two intersection-kernel
/// cutovers after the snapshot byte; [`RunManifest::read`] drops those.
const MANIFEST_LAYOUT_MARKER: usize = usize::MAX;

fn snapshot_file_name(elements: u64) -> String {
    format!("snap-{elements:020}.absnap")
}

/// The path of the snapshot covering `elements` elements inside `dir`.
#[must_use]
pub fn snapshot_path(dir: &Path, elements: u64) -> PathBuf {
    dir.join(snapshot_file_name(elements))
}

/// Lists the snapshot paths of `dir`, ordered by element position.
///
/// # Errors
/// [`PersistError::Io`] on directory-read failure.
pub fn list_snapshots(dir: &Path) -> Result<Vec<PathBuf>, PersistError> {
    let mut snapshots = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("snap-") && name.ends_with(".absnap") {
            snapshots.push(entry.path());
        }
    }
    snapshots.sort();
    Ok(snapshots)
}

/// Writes an `ABSNAP1` snapshot atomically (temp file + fsync + rename).
///
/// # Errors
/// [`PersistError::Io`] on any filesystem failure.
pub fn write_snapshot(dir: &Path, elements: u64, state: &[u8]) -> Result<(), PersistError> {
    fs::create_dir_all(dir)?;
    let mut meta = Encoder::new();
    meta.put_u64(elements);
    let meta = meta.finish();

    let mut bytes = Vec::with_capacity(SNAPSHOT_MAGIC.len() + 1 + 26 + meta.len() + state.len());
    bytes.extend_from_slice(SNAPSHOT_MAGIC);
    bytes.push(SNAPSHOT_VERSION);
    for (tag, payload) in [(SECTION_META, meta.as_slice()), (SECTION_STATE, state)] {
        bytes.push(tag);
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
    }

    let tmp = dir.join("snap.tmp");
    let mut file = fs::File::create(&tmp)?;
    file.write_all(&bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, snapshot_path(dir, elements))?;
    Ok(())
}

/// Reads and validates an `ABSNAP1` snapshot file, returning its element
/// position and the estimator payload.
///
/// # Errors
/// * [`PersistError::BadMagic`] / [`PersistError::BadVersion`] on a foreign
///   or future-format file,
/// * [`PersistError::Truncated`] when the file ends mid-section,
/// * [`PersistError::Corrupt`] on a per-section CRC mismatch or unknown
///   section layout.
pub fn read_snapshot(path: &Path) -> Result<(u64, Vec<u8>), PersistError> {
    let bytes = fs::read(path)?;
    if bytes.len() < SNAPSHOT_MAGIC.len() + 1 {
        return Err(PersistError::Truncated(format!(
            "snapshot file holds {} bytes, the header alone needs {}",
            bytes.len(),
            SNAPSHOT_MAGIC.len() + 1
        )));
    }
    if &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(PersistError::BadMagic {
            expected: format::SNAPSHOT.name,
            found: bytes[..SNAPSHOT_MAGIC.len()].to_vec(),
        });
    }
    let version = bytes[SNAPSHOT_MAGIC.len()];
    if version != SNAPSHOT_VERSION {
        return Err(PersistError::BadVersion {
            expected: SNAPSHOT_VERSION,
            found: version,
        });
    }
    let mut meta: Option<Vec<u8>> = None;
    let mut state: Option<Vec<u8>> = None;
    let mut rest = &bytes[SNAPSHOT_MAGIC.len() + 1..];
    while !rest.is_empty() {
        if rest.len() < 9 {
            return Err(PersistError::Truncated(
                "snapshot ends inside a section header".into(),
            ));
        }
        let tag = rest[0];
        let len = u64::from_le_bytes(
            rest[1..9]
                .try_into()
                .map_err(|_| PersistError::Invariant("section header is 9 bytes"))?,
        );
        let len = usize::try_from(len)
            .map_err(|_| PersistError::Corrupt("section length overflows usize".into()))?;
        rest = &rest[9..];
        if rest.len() < len + 4 {
            return Err(PersistError::Truncated(format!(
                "section {tag} claims {len} bytes, {} remain",
                rest.len().saturating_sub(4)
            )));
        }
        let payload = &rest[..len];
        let stored = u32::from_le_bytes(
            rest[len..len + 4]
                .try_into()
                .map_err(|_| PersistError::Invariant("section CRC is 4 bytes"))?,
        );
        if crc32(payload) != stored {
            return Err(PersistError::Corrupt(format!(
                "section {tag} failed its CRC check"
            )));
        }
        match tag {
            SECTION_META => meta = Some(payload.to_vec()),
            SECTION_STATE => state = Some(payload.to_vec()),
            other => {
                return Err(PersistError::Corrupt(format!(
                    "unknown snapshot section tag {other}"
                )))
            }
        }
        rest = &rest[len + 4..];
    }
    let (Some(meta), Some(state)) = (meta, state) else {
        return Err(PersistError::Truncated(
            "snapshot is missing its meta or state section".into(),
        ));
    };
    let mut dec = Decoder::new(&meta);
    let elements = dec.get_u64()?;
    dec.expect_end()?;
    Ok((elements, state))
}

/// The durable description of a checkpointed run: everything needed to
/// rebuild the estimator object a snapshot restores into.
///
/// Written once at [`Checkpointer::create`] time; [`Checkpointer::resume`]
/// reads it back and rebuilds the estimator through the same registry paths
/// (`EstimatorSpec::build`, `build_with_views`, `Ensemble::new`) the original
/// run used, so the restored object has identical configuration by
/// construction.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// The estimator description (algorithm, budget, seed, tuning).
    pub spec: EstimatorSpec,
    /// Delta-circuit views subscribed on the estimator (empty = bare).
    pub views: Vec<ViewKind>,
    /// `Some((replicas, mode))` when the run is an ensemble of `spec`.
    pub ensemble: Option<(usize, EnsembleMode)>,
    /// Checkpoint cadence in stream elements (0 = only explicit checkpoints).
    pub checkpoint_every: u64,
}

impl RunManifest {
    /// A manifest for a bare estimator checkpointed every `every` elements.
    #[must_use]
    pub fn new(spec: EstimatorSpec, every: u64) -> Self {
        RunManifest {
            spec,
            views: Vec::new(),
            ensemble: None,
            checkpoint_every: every,
        }
    }

    /// Returns the manifest with circuit views subscribed.
    #[must_use]
    pub fn with_views(mut self, views: &[ViewKind]) -> Self {
        self.views = views.to_vec();
        self
    }

    /// Returns the manifest describing an ensemble of the base spec.
    #[must_use]
    pub fn with_ensemble(mut self, replicas: usize, mode: EnsembleMode) -> Self {
        self.ensemble = Some((replicas, mode));
        self
    }

    /// Builds the described estimator through the engine registry.
    ///
    /// # Errors
    /// [`PersistError::Corrupt`] on a manifest describing a zero-replica
    /// ensemble ([`RunManifest::read`] rejects such manifests up front, so
    /// every decoded manifest builds; a hand-built one may not).
    pub fn build(&self) -> Result<Box<dyn ButterflyCounter + Send>, PersistError> {
        Ok(match self.ensemble {
            Some((replicas, mode)) => Box::new(
                crate::engine::Ensemble::new(self.spec, replicas, mode).map_err(|_| {
                    PersistError::Corrupt("manifest describes a zero-replica ensemble".into())
                })?,
            ),
            None if self.views.is_empty() => self.spec.build(),
            None => self.spec.build_with_views(&self.views),
        })
    }

    fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_str(self.spec.kind.name());
        enc.put_usize(MANIFEST_LAYOUT_MARKER);
        enc.put_usize(self.spec.budget);
        enc.put_u64(self.spec.seed);
        enc.put_usize(self.spec.batch_size);
        enc.put_usize(self.spec.threads);
        enc.put_usize(self.spec.pipeline_depth);
        // The snapshot mode has no effect; it is kept so manifests round-trip.
        enc.put_u8(match self.spec.snapshot {
            SnapshotMode::Off => 0,
            SnapshotMode::On => 1,
            SnapshotMode::Auto => 2,
        });
        enc.put_usize(self.views.len());
        for view in &self.views {
            enc.put_str(view.name());
        }
        match self.ensemble {
            None => enc.put_u8(0),
            Some((replicas, mode)) => {
                enc.put_u8(match mode {
                    EnsembleMode::Replicate => 1,
                    EnsembleMode::Partition => 2,
                });
                enc.put_usize(replicas);
            }
        }
        enc.put_u64(self.checkpoint_every);
        enc.finish()
    }

    fn decode(payload: &[u8]) -> Result<Self, PersistError> {
        let mut dec = Decoder::new(payload);
        let kind = dec.get_str()?;
        let kind = EstimatorKind::parse(kind)
            .map_err(|_| PersistError::Corrupt(format!("unknown estimator kind '{kind}'")))?;
        let first = dec.get_usize()?;
        let cutover_layout = first != MANIFEST_LAYOUT_MARKER;
        let budget = if cutover_layout {
            first
        } else {
            dec.get_usize()?
        };
        if budget < 2 {
            return Err(PersistError::Corrupt(format!(
                "manifest budget {budget} is below the minimum of 2"
            )));
        }
        let mut spec = EstimatorSpec::new(kind, budget)
            .with_seed(dec.get_u64()?)
            .with_batch_size(dec.get_usize()?.max(1))
            .with_threads(dec.get_usize()?.max(1))
            .with_pipeline_depth(dec.get_usize()?.max(1));
        spec = spec.with_snapshot(match dec.get_u8()? {
            0 => SnapshotMode::Off,
            1 => SnapshotMode::On,
            2 => SnapshotMode::Auto,
            other => {
                return Err(PersistError::Corrupt(format!(
                    "invalid snapshot mode byte {other}"
                )))
            }
        });
        if cutover_layout {
            // The retired merge and gallop cutovers never changed a result.
            dec.get_usize()?;
            dec.get_usize()?;
        }
        let num_views = dec.get_usize()?;
        if num_views > ViewKind::ALL.len() {
            return Err(PersistError::Corrupt(format!(
                "manifest lists {num_views} views, the registry has {}",
                ViewKind::ALL.len()
            )));
        }
        let mut views = Vec::with_capacity(num_views);
        for _ in 0..num_views {
            let name = dec.get_str()?;
            let kind = ViewKind::parse(name)
                .map_err(|_| PersistError::Corrupt(format!("unknown view '{name}'")))?;
            views.push(kind);
        }
        let ensemble = match dec.get_u8()? {
            0 => None,
            1 => Some((dec.get_usize()?, EnsembleMode::Replicate)),
            2 => Some((dec.get_usize()?, EnsembleMode::Partition)),
            other => {
                return Err(PersistError::Corrupt(format!(
                    "invalid ensemble mode byte {other}"
                )))
            }
        };
        if let Some((0, _)) = ensemble {
            return Err(PersistError::Corrupt(
                "manifest describes a zero-replica ensemble".into(),
            ));
        }
        let checkpoint_every = dec.get_u64()?;
        dec.expect_end()?;
        Ok(RunManifest {
            spec,
            views,
            ensemble,
            checkpoint_every,
        })
    }

    /// Writes the manifest to `dir/MANIFEST` (magic + payload + CRC).
    ///
    /// # Errors
    /// [`PersistError::Io`] on filesystem failure.
    pub fn write(&self, dir: &Path) -> Result<(), PersistError> {
        fs::create_dir_all(dir)?;
        let payload = self.encode();
        let mut bytes = Vec::with_capacity(MANIFEST_MAGIC.len() + payload.len() + 4);
        bytes.extend_from_slice(MANIFEST_MAGIC);
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        let tmp = dir.join("MANIFEST.tmp");
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, dir.join(MANIFEST_FILE))?;
        Ok(())
    }

    /// Reads and validates `dir/MANIFEST`.
    ///
    /// # Errors
    /// [`PersistError::BadMagic`], [`PersistError::Truncated`],
    /// [`PersistError::Corrupt`] (CRC or field validation), or
    /// [`PersistError::Io`].
    pub fn read(dir: &Path) -> Result<Self, PersistError> {
        let bytes = fs::read(dir.join(MANIFEST_FILE))?;
        if bytes.len() < MANIFEST_MAGIC.len() + 4 {
            return Err(PersistError::Truncated(format!(
                "manifest holds {} bytes, the envelope alone needs {}",
                bytes.len(),
                MANIFEST_MAGIC.len() + 4
            )));
        }
        if &bytes[..MANIFEST_MAGIC.len()] != MANIFEST_MAGIC {
            return Err(PersistError::BadMagic {
                expected: format::MANIFEST.name,
                found: bytes[..MANIFEST_MAGIC.len()].to_vec(),
            });
        }
        let payload = &bytes[MANIFEST_MAGIC.len()..bytes.len() - 4];
        let stored = u32::from_le_bytes(
            bytes[bytes.len() - 4..]
                .try_into()
                .map_err(|_| PersistError::Invariant("manifest CRC tail is 4 bytes"))?,
        );
        if crc32(payload) != stored {
            return Err(PersistError::Corrupt(
                "manifest failed its CRC check".into(),
            ));
        }
        Self::decode(payload)
    }
}

impl std::fmt::Debug for Checkpointer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpointer")
            .field("dir", &self.dir)
            .field("estimator", &self.estimator.name())
            .field("elements", &self.elements)
            .field("every", &self.manifest.checkpoint_every)
            .finish()
    }
}

/// What [`Checkpointer::resume`] reconstructed, and how.
#[derive(Debug)]
pub struct Recovery {
    /// The recovered checkpointer, positioned at the end of the durable log
    /// and ready for the next [`offer`](Checkpointer::offer).
    pub checkpointer: Checkpointer,
    /// The element position of the snapshot recovery restored from.
    pub snapshot_elements: u64,
    /// Elements replayed from the WAL on top of the snapshot.
    pub replayed: u64,
    /// Whether a torn (partially written) final WAL record was dropped.
    pub dropped_torn_tail: bool,
    /// Whether the newest snapshot was unreadable and recovery fell back to
    /// an older one.
    pub fell_back: bool,
    /// Whether the `COMMITTED` watermark was missing or corrupt and was
    /// rebuilt from the durable snapshot + WAL state (never silently — the
    /// flag is the honest record that the watermark was not trusted).
    pub watermark_rebuilt: bool,
}

/// Drives a live estimator with durability: WAL-append before process,
/// snapshot + WAL rotation + watermark advance every `checkpoint_every`
/// elements.  Transient I/O failures on the WAL append and the watermark
/// rename pass through bounded retry ([`RetryPolicy`]) before surfacing.
pub struct Checkpointer {
    dir: PathBuf,
    manifest: RunManifest,
    estimator: Box<dyn ButterflyCounter + Send>,
    wal: Option<WalWriter>,
    elements: u64,
    retry: RetryPolicy,
}

impl Checkpointer {
    /// Initializes a checkpoint directory for a fresh run: writes the
    /// manifest, an element-0 snapshot (so recovery always has a floor to
    /// replay from), the watermark, and opens the first WAL segment.
    ///
    /// # Errors
    /// Any [`PersistError`] from serialization or the filesystem — including
    /// [`PersistError::Io`] with `AlreadyExists` when `dir` already holds a
    /// WAL (refusing to silently interleave two runs).
    pub fn create(dir: impl Into<PathBuf>, manifest: RunManifest) -> Result<Self, PersistError> {
        let dir = dir.into();
        let mut estimator = manifest.build()?;
        manifest.write(&dir)?;
        let state = estimator.save_state()?;
        write_snapshot(&dir, 0, &state)?;
        let wal = WalWriter::create(&dir, 0)?;
        write_watermark(&dir, 0)?;
        Ok(Checkpointer {
            dir,
            manifest,
            estimator,
            wal: Some(wal),
            elements: 0,
            retry: RetryPolicy::default(),
        })
    }

    /// Recovers a checkpointed run: loads the newest valid snapshot (falling
    /// back to the previous one if the newest is torn or corrupt), replays
    /// the WAL from its position — re-performing checkpoints at cadence
    /// multiples so mini-batch boundaries stay aligned with the uninterrupted
    /// run — and reopens the log for appending.
    ///
    /// # Errors
    /// Any [`PersistError`]: unreadable manifest, no valid snapshot, a WAL
    /// chain with gaps ([`PersistError::Gap`]), or corrupt segments.  Never
    /// panics on corrupt input; never silently resumes from a wrong state.
    pub fn resume(dir: impl Into<PathBuf>) -> Result<Recovery, PersistError> {
        let dir = dir.into();
        let manifest = RunManifest::read(&dir)?;

        // Validate the committed watermark up front.  Missing or corrupt is
        // survivable — snapshots and the WAL are the source of truth, so the
        // watermark is rebuilt from them below and the recovery is flagged.
        // A watermark *ahead* of the durable log is checked after replay: it
        // would mean committed elements are gone, which is not survivable.
        let (watermark, watermark_rebuilt) = match read_watermark(&dir) {
            Ok(Some(committed)) => (Some(committed), false),
            Ok(None) => (None, true),
            Err(PersistError::Io(error)) => return Err(PersistError::Io(error)),
            Err(_) => (None, true),
        };

        // Newest valid snapshot wins; a torn newest falls back to the
        // previous one (kept exactly for this purpose).  Each attempt
        // restores into a freshly built estimator so a half-applied corrupt
        // payload can never leak state into the run that continues.
        let snapshots = list_snapshots(&dir)?;
        let mut restored: Option<(u64, Box<dyn ButterflyCounter + Send>)> = None;
        let mut fell_back = false;
        let mut last_error: Option<PersistError> = None;
        for path in snapshots.iter().rev() {
            let mut candidate = manifest.build()?;
            match read_snapshot(path)
                .and_then(|(elements, state)| candidate.restore_state(&state).map(|()| elements))
            {
                Ok(elements) => {
                    restored = Some((elements, candidate));
                    break;
                }
                Err(error) => {
                    fell_back = true;
                    last_error = Some(error);
                }
            }
        }
        let Some((snapshot_elements, mut estimator)) = restored else {
            return Err(last_error.unwrap_or_else(|| {
                PersistError::Truncated("checkpoint directory holds no snapshot".into())
            }));
        };

        // Truncate any torn tail record, then replay the durable suffix.
        let dropped_torn_tail = seal_tail(&dir)?;
        let recovery = replay_wal(&dir, snapshot_elements)?;
        let mut elements = snapshot_elements;
        let every = manifest.checkpoint_every;
        let mut healed = snapshot_elements;
        for &element in &recovery.elements {
            estimator.process(element);
            elements += 1;
            if every > 0 && elements % every == 0 {
                // Re-perform the checkpoint the original run took here: the
                // flush inside save_state keeps batch boundaries aligned, and
                // rewriting the snapshot heals whichever one the crash tore.
                let state = estimator.save_state()?;
                write_snapshot(&dir, elements, &state)?;
                healed = elements;
            }
        }
        if let Some(committed) = watermark {
            if committed > elements {
                // The watermark claims a position beyond the durable
                // snapshot + log: committed elements are irrecoverably
                // missing.  Fail closed — resuming would silently shorten
                // the stream.
                return Err(PersistError::Gap {
                    expected: committed,
                    found: elements,
                });
            }
        }
        if watermark_rebuilt || healed > snapshot_elements {
            write_watermark(&dir, healed)?;
        }

        let wal = WalWriter::create(&dir, elements)?;
        Ok(Recovery {
            checkpointer: Checkpointer {
                dir,
                manifest,
                estimator,
                wal: Some(wal),
                elements,
                retry: RetryPolicy::default(),
            },
            snapshot_elements,
            replayed: recovery.elements.len() as u64,
            dropped_torn_tail: dropped_torn_tail || recovery.dropped_torn_tail,
            fell_back,
            watermark_rebuilt,
        })
    }

    /// Appends `element` to the WAL, feeds it to the estimator, and
    /// checkpoints when the cadence comes due.
    ///
    /// # Errors
    /// [`PersistError::Io`] on WAL or snapshot write failure.
    pub fn offer(&mut self, element: StreamElement) -> Result<(), PersistError> {
        let retry = self.retry;
        self.wal
            .as_mut()
            .ok_or(PersistError::Invariant(
                "the WAL writer is open between calls",
            ))?
            .append_with_retry(element, &retry)?;
        self.estimator.process(element);
        self.elements += 1;
        let every = self.manifest.checkpoint_every;
        if every > 0 && self.elements.is_multiple_of(every) {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Takes a checkpoint now: snapshot, WAL rotation, watermark advance,
    /// prune.  Returns the element position the checkpoint covers.
    ///
    /// # Errors
    /// Any [`PersistError`] from serialization or the filesystem.
    pub fn checkpoint(&mut self) -> Result<u64, PersistError> {
        let state = self.estimator.save_state()?;
        write_snapshot(&self.dir, self.elements, &state)?;
        let wal = self.wal.take().ok_or(PersistError::Invariant(
            "the WAL writer is open between calls",
        ))?;
        self.wal = Some(wal.rotate()?);
        write_watermark_with_retry(&self.dir, self.elements, &self.retry)?;
        self.prune()?;
        Ok(self.elements)
    }

    /// Removes snapshots older than the newest [`SNAPSHOTS_KEPT`] and WAL
    /// segments no kept snapshot needs for replay.
    fn prune(&self) -> Result<(), PersistError> {
        let snapshots = list_snapshots(&self.dir)?;
        if snapshots.len() <= SNAPSHOTS_KEPT {
            return Ok(());
        }
        let keep = &snapshots[snapshots.len() - SNAPSHOTS_KEPT..];
        let (oldest_kept, _) = read_snapshot(&keep[0])?;
        for path in &snapshots[..snapshots.len() - SNAPSHOTS_KEPT] {
            fs::remove_file(path)?;
        }
        prune_segments(&self.dir, oldest_kept)?;
        Ok(())
    }

    /// Finalizes the run: finishes the estimator (draining any buffered
    /// work) and takes a last checkpoint, so the final state is durable.
    /// Returns the final estimate.
    ///
    /// # Errors
    /// Any [`PersistError`] from the final checkpoint.
    pub fn finish(&mut self) -> Result<f64, PersistError> {
        let estimate = self.estimator.finish();
        self.checkpoint()?;
        Ok(estimate)
    }

    /// The live estimator (read-only).
    #[must_use]
    pub fn estimator(&self) -> &dyn ButterflyCounter {
        &*self.estimator
    }

    /// The live estimator (mutable — e.g. to `finish` without checkpointing).
    pub fn estimator_mut(&mut self) -> &mut (dyn ButterflyCounter + Send) {
        &mut *self.estimator
    }

    /// Elements offered so far (snapshot position + live suffix).
    #[must_use]
    pub fn elements(&self) -> u64 {
        self.elements
    }

    /// The manifest this run was created (or resumed) with.
    #[must_use]
    pub fn manifest(&self) -> &RunManifest {
        &self.manifest
    }

    /// The checkpoint directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The committed watermark currently on disk.
    ///
    /// # Errors
    /// Any [`PersistError`] from reading the watermark file.
    pub fn committed(&self) -> Result<Option<u64>, PersistError> {
        read_watermark(&self.dir)
    }

    /// Consumes the checkpointer, sealing the open WAL segment and returning
    /// the estimator.
    ///
    /// # Errors
    /// [`PersistError::Io`] on seal failure.
    pub fn into_estimator(mut self) -> Result<Box<dyn ButterflyCounter + Send>, PersistError> {
        if let Some(wal) = self.wal.take() {
            wal.seal()?;
        }
        Ok(self.estimator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abacus_stream::generators::random::uniform_bipartite;
    use abacus_stream::{inject_deletions_fast, DeletionConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("abacus-checkpoint-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn dynamic_stream(seed: u64, edges: usize) -> Vec<StreamElement> {
        let base = uniform_bipartite(80, 80, edges, &mut StdRng::seed_from_u64(seed));
        inject_deletions_fast(
            &base,
            DeletionConfig::new(0.2),
            &mut StdRng::seed_from_u64(seed ^ 0xBEEF),
        )
    }

    #[test]
    fn manifest_round_trips_through_disk() {
        let dir = test_dir("manifest");
        let manifest = RunManifest::new(
            EstimatorSpec::parabacus(300)
                .with_seed(5)
                .with_batch_size(128)
                .with_threads(2)
                .with_pipeline_depth(3),
            250,
        )
        .with_views(&[ViewKind::PerEdge, ViewKind::Anomaly]);
        manifest.write(&dir).unwrap();
        assert_eq!(RunManifest::read(&dir).unwrap(), manifest);

        let ensemble = RunManifest::new(EstimatorSpec::abacus(64), 100)
            .with_ensemble(4, EnsembleMode::Partition);
        ensemble.write(&dir).unwrap();
        assert_eq!(RunManifest::read(&dir).unwrap(), ensemble);

        // Corruption fails closed.
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            RunManifest::read(&dir),
            Err(PersistError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A manifest in the older layout — no layout marker, and the merge and
    /// gallop cutovers after the snapshot byte — still decodes to the same
    /// run, and a crashed run checkpointed under it resumes bit-identically.
    #[test]
    fn manifest_with_kernel_cutovers_decodes_and_resumes() {
        let stream = dynamic_stream(19, 1_200);
        let every = 256u64;
        let manifest = RunManifest::new(EstimatorSpec::abacus(200).with_seed(13), every)
            .with_views(&[ViewKind::PerEdge]);

        let ref_dir = test_dir("cutover-manifest-reference");
        let mut reference = Checkpointer::create(&ref_dir, manifest.clone()).unwrap();
        for &element in &stream {
            reference.offer(element).unwrap();
        }
        let reference_estimate = reference.finish().unwrap();

        let crash_at = 700usize;
        let dir = test_dir("cutover-manifest-crash");
        let mut interrupted = Checkpointer::create(&dir, manifest.clone()).unwrap();
        for &element in &stream[..crash_at] {
            interrupted.offer(element).unwrap();
        }
        drop(interrupted);

        // Replace the manifest with the same run in the older layout.
        let spec = manifest.spec;
        let mut enc = Encoder::new();
        enc.put_str(spec.kind.name());
        enc.put_usize(spec.budget);
        enc.put_u64(spec.seed);
        enc.put_usize(spec.batch_size);
        enc.put_usize(spec.threads);
        enc.put_usize(spec.pipeline_depth);
        enc.put_u8(2); // SnapshotMode::Auto
        enc.put_usize(8); // merge_size_ratio
        enc.put_usize(128); // gallop_size_ratio
        enc.put_usize(1);
        enc.put_str(ViewKind::PerEdge.name());
        enc.put_u8(0); // not an ensemble
        enc.put_u64(every);
        let payload = enc.finish();
        let mut bytes = MANIFEST_MAGIC.to_vec();
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        fs::write(dir.join(MANIFEST_FILE), bytes).unwrap();
        assert_eq!(RunManifest::read(&dir).unwrap(), manifest);

        let mut resumed = Checkpointer::resume(&dir).unwrap().checkpointer;
        assert_eq!(resumed.elements(), crash_at as u64);
        for &element in &stream[crash_at..] {
            resumed.offer(element).unwrap();
        }
        assert_eq!(
            resumed.finish().unwrap().to_bits(),
            reference_estimate.to_bits()
        );
        fs::remove_dir_all(&ref_dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_files_fail_closed_on_every_corruption() {
        let dir = test_dir("snapshot-corruption");
        write_snapshot(&dir, 42, b"estimator state bytes").unwrap();
        let path = snapshot_path(&dir, 42);
        let clean = fs::read(&path).unwrap();
        assert_eq!(
            read_snapshot(&path).unwrap(),
            (42, b"estimator state bytes".to_vec())
        );

        // Truncation at every prefix length is Truncated or Io, never a panic.
        for len in 0..clean.len() {
            fs::write(&path, &clean[..len]).unwrap();
            assert!(
                read_snapshot(&path).is_err(),
                "prefix of {len} bytes must not parse"
            );
        }
        // Bad magic.
        let mut bad = clean.clone();
        bad[0] = b'X';
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(PersistError::BadMagic { .. })
        ));
        // Wrong version byte.
        let mut bad = clean.clone();
        bad[SNAPSHOT_MAGIC.len()] = 9;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(PersistError::BadVersion {
                expected: SNAPSHOT_VERSION,
                found: 9
            })
        ));
        // A flipped payload bit trips the section CRC.
        let mut bad = clean.clone();
        let last = bad.len() - 5; // inside the state payload, before its CRC
        bad[last] ^= 0x01;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(PersistError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpointed_run_resumes_bit_identically() {
        let stream = dynamic_stream(17, 1_500);
        let every = 256u64;
        let spec = EstimatorSpec::abacus(200).with_seed(13);

        // Uninterrupted reference, checkpointing at the same cadence.
        let ref_dir = test_dir("resume-reference");
        let mut reference = Checkpointer::create(&ref_dir, RunManifest::new(spec, every)).unwrap();
        for &element in &stream {
            reference.offer(element).unwrap();
        }
        let reference_estimate = reference.finish().unwrap();

        // Interrupted run: drop the checkpointer mid-stream (a crash keeps
        // the OS-buffered WAL in this model), then resume and finish.
        let crash_at = 700usize;
        let dir = test_dir("resume-crash");
        let mut interrupted = Checkpointer::create(&dir, RunManifest::new(spec, every)).unwrap();
        for &element in &stream[..crash_at] {
            interrupted.offer(element).unwrap();
        }
        drop(interrupted); // no seal, no final checkpoint: the "kill"

        let recovery = Checkpointer::resume(&dir).unwrap();
        assert_eq!(recovery.snapshot_elements, 512);
        assert_eq!(recovery.replayed, crash_at as u64 - 512);
        let mut resumed = recovery.checkpointer;
        assert_eq!(resumed.elements(), crash_at as u64);
        for &element in &stream[crash_at..] {
            resumed.offer(element).unwrap();
        }
        let resumed_estimate = resumed.finish().unwrap();

        assert_eq!(reference_estimate.to_bits(), resumed_estimate.to_bits());
        assert_eq!(
            resumed.committed().unwrap(),
            Some(stream.len() as u64),
            "the final checkpoint advances the watermark to the stream end"
        );
        fs::remove_dir_all(&ref_dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_newest_snapshot_falls_back_to_the_previous_one() {
        let stream = dynamic_stream(23, 900);
        let every = 200u64;
        let spec = EstimatorSpec::abacus(128).with_seed(3);
        let dir = test_dir("fallback");
        let mut run = Checkpointer::create(&dir, RunManifest::new(spec, every)).unwrap();
        for &element in &stream {
            run.offer(element).unwrap();
        }
        drop(run);

        // Tear the newest snapshot: recovery must fall back to the previous
        // one and replay the WAL across the gap.
        let snapshots = list_snapshots(&dir).unwrap();
        assert_eq!(snapshots.len(), SNAPSHOTS_KEPT);
        let (newest_elements, _) = read_snapshot(&snapshots[1]).unwrap();
        let (prev_elements, _) = read_snapshot(&snapshots[0]).unwrap();
        let bytes = fs::read(&snapshots[1]).unwrap();
        fs::write(&snapshots[1], &bytes[..bytes.len() / 2]).unwrap();

        let recovery = Checkpointer::resume(&dir).unwrap();
        assert!(recovery.fell_back);
        assert_eq!(recovery.snapshot_elements, prev_elements);
        assert_eq!(
            recovery.checkpointer.elements(),
            stream.len() as u64,
            "replay reaches the end of the durable log"
        );

        // Replay re-performed the torn checkpoint, healing the tear.
        assert!(read_snapshot(&snapshot_path(&dir, newest_elements)).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pruning_keeps_a_fallback_snapshot_and_its_wal_suffix() {
        let stream = dynamic_stream(31, 1_200);
        let spec = EstimatorSpec::abacus(64).with_seed(1);
        let dir = test_dir("prune");
        let mut run = Checkpointer::create(&dir, RunManifest::new(spec, 100)).unwrap();
        for &element in &stream {
            run.offer(element).unwrap();
        }
        run.finish().unwrap();
        let snapshots = list_snapshots(&dir).unwrap();
        assert_eq!(snapshots.len(), SNAPSHOTS_KEPT);
        // Both kept snapshots restore.
        for path in &snapshots {
            assert!(read_snapshot(path).is_ok());
        }
        // The WAL still reaches back to the older kept snapshot.
        let (oldest, _) = read_snapshot(&snapshots[0]).unwrap();
        assert!(replay_wal(&dir, oldest).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }
}
