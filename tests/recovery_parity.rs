//! Kill-point recovery parity: a checkpointed run that is killed at an
//! arbitrary element index and resumed must be **bit-identical** to the same
//! run never interrupted — final estimate (`f64::to_bits`), `memory_edges`,
//! and the full serialized estimator state (which embeds sampler slots, RNG
//! words, and the probe-model `comparisons` counters) all compared exactly.
//!
//! The suite covers ABACUS, PARABACUS at pipeline depths 1–4 (killed
//! mid-batch), the FLEET/CAS/EXACT/LOCAL registry kinds, replicate and
//! partition ensembles at K ∈ {1, 4} (killed mid-chunk, with per-replica
//! seed-derivation stability), and a five-view delta circuit whose restored
//! views must bit-match offline recomputation on the restored graph replica.
//!
//! A corruption matrix then drives every fail-closed path end to end:
//! truncated or bit-flipped snapshots fall back to the previous snapshot and
//! still converge to the uninterrupted fingerprint; a torn final WAL record
//! is dropped and re-offered; corruption of *every* snapshot, a flipped bit
//! in a sealed WAL segment, or a missing segment yield a typed
//! [`PersistError`] — never a panic, never a silently wrong estimate.

use abacus::prelude::*;
use abacus_core::circuit::{AnomalyView, ClusteringView, PerVertexView};
use abacus_core::{Checkpointer, Recovery, RunManifest};
use abacus_graph::persist::PersistError;
use abacus_graph::{
    bitruss_decomposition, butterfly_clustering_coefficient, ClusteringState, EdgeSupports,
    VertexButterflyCounts,
};
use abacus_stream::generators::random::uniform_bipartite;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

type BoxedCircuit = Circuit<Box<dyn ButterflyCounter + Send>>;

fn dynamic_stream(seed: u64, edges: usize, alpha: f64) -> Vec<StreamElement> {
    let base = uniform_bipartite(60, 60, edges, &mut StdRng::seed_from_u64(seed));
    inject_deletions_fast(
        &base,
        DeletionConfig::new(alpha),
        &mut StdRng::seed_from_u64(seed ^ 0xBEEF),
    )
}

/// A fresh, empty checkpoint directory under the system temp dir.
fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("abacus-recovery-parity")
        .join(format!("{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Everything recovery must reproduce exactly.  The serialized state embeds
/// the sampler slot order, Random Pairing counters, RNG words, and work/
/// comparison statistics, so byte equality here is the strongest check the
/// estimators expose.
#[derive(PartialEq, Eq)]
struct Fingerprint {
    estimate_bits: u64,
    memory_edges: usize,
    state: Vec<u8>,
}

impl std::fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fingerprint")
            .field("estimate", &f64::from_bits(self.estimate_bits))
            .field("memory_edges", &self.memory_edges)
            .field("state_len", &self.state.len())
            .finish()
    }
}

fn fingerprint(checkpointer: &mut Checkpointer) -> Fingerprint {
    let estimate_bits = checkpointer.estimator().estimate().to_bits();
    let memory_edges = checkpointer.estimator().memory_edges();
    let state = checkpointer.estimator_mut().save_state().unwrap();
    Fingerprint {
        estimate_bits,
        memory_edges,
        state,
    }
}

/// Drives `manifest` over the whole stream with durability and returns the
/// final fingerprint.  The reference runs through the checkpointer too:
/// checkpoints flush PARABACUS mini-batches, so bit-identity is defined at
/// matching checkpoint cadences.
fn run_uninterrupted(manifest: RunManifest, stream: &[StreamElement], tag: &str) -> Fingerprint {
    let dir = test_dir(tag);
    let mut checkpointer = Checkpointer::create(&dir, manifest).unwrap();
    for &element in stream {
        checkpointer.offer(element).unwrap();
    }
    checkpointer.finish().unwrap();
    let print = fingerprint(&mut checkpointer);
    std::fs::remove_dir_all(&dir).ok();
    print
}

/// Runs `manifest` up to `kill_at` elements, then abandons the checkpointer
/// mid-flight (dropping it without sealing — the in-process equivalent of
/// `kill -9`, since every WAL append is written through before processing).
/// Returns the directory for [`Checkpointer::resume`].
fn run_killed(
    manifest: RunManifest,
    stream: &[StreamElement],
    kill_at: usize,
    tag: &str,
) -> PathBuf {
    let dir = test_dir(tag);
    let mut checkpointer = Checkpointer::create(&dir, manifest).unwrap();
    for &element in &stream[..kill_at] {
        checkpointer.offer(element).unwrap();
    }
    drop(checkpointer);
    dir
}

/// Resumes `dir`, feeds the remainder of the stream, finishes, and returns
/// the final fingerprint plus the recovery details.
fn resume_and_finish(dir: &Path, stream: &[StreamElement]) -> (Fingerprint, Recovery) {
    let mut recovery = Checkpointer::resume(dir).unwrap();
    let covered = recovery.checkpointer.elements() as usize;
    for &element in &stream[covered..] {
        recovery.checkpointer.offer(element).unwrap();
    }
    recovery.checkpointer.finish().unwrap();
    let print = fingerprint(&mut recovery.checkpointer);
    (print, recovery)
}

/// The core assertion: killed-at-`kill_at` + resumed ≡ uninterrupted.
fn assert_kill_point_parity(
    manifest: RunManifest,
    stream: &[StreamElement],
    kill_at: usize,
    tag: &str,
) {
    let reference = run_uninterrupted(manifest.clone(), stream, &format!("{tag}-ref"));
    let dir = run_killed(manifest, stream, kill_at, &format!("{tag}-kill"));
    let (resumed, recovery) = resume_and_finish(&dir, stream);
    assert_eq!(reference, resumed, "{tag}: kill at {kill_at}");
    assert!(
        recovery.snapshot_elements as usize <= kill_at,
        "{tag}: snapshot {} beyond kill point {kill_at}",
        recovery.snapshot_elements,
    );
    assert_eq!(
        recovery.snapshot_elements + recovery.replayed,
        kill_at as u64,
        "{tag}: WAL replay must reach exactly the kill point",
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn spec(kind: EstimatorKind) -> EstimatorSpec {
    EstimatorSpec::new(kind, 256).with_seed(9)
}

#[test]
fn abacus_kill_points_resume_bit_identically() {
    let stream = dynamic_stream(3, 1_500, 0.25);
    // Kill points straddle checkpoint boundaries: at a checkpoint, one past
    // it, deep between two, and before the first.
    for kill_at in [0, 1, 255, 256, 257, 700, 1_023, stream.len() - 1] {
        assert_kill_point_parity(
            RunManifest::new(spec(EstimatorKind::Abacus), 256),
            &stream,
            kill_at,
            &format!("abacus-{kill_at}"),
        );
    }
}

#[test]
fn parabacus_mid_batch_kill_points_across_depths() {
    let stream = dynamic_stream(5, 1_200, 0.2);
    for depth in 1..=4usize {
        for threads in [1usize, 2] {
            let spec = EstimatorSpec::new(EstimatorKind::ParAbacus, 256)
                .with_seed(17)
                .with_batch_size(128)
                .with_threads(threads)
                .with_pipeline_depth(depth);
            // 300 is mid-batch (batch 128, checkpoint 256): the kill lands
            // with a partially filled buffer and open pipeline batches.
            assert_kill_point_parity(
                RunManifest::new(spec, 256),
                &stream,
                300,
                &format!("parabacus-d{depth}-t{threads}"),
            );
        }
    }
}

#[test]
fn every_registry_kind_resumes_bit_identically() {
    let stream = dynamic_stream(7, 1_000, 0.2);
    for kind in [
        EstimatorKind::Local,
        EstimatorKind::Fleet,
        EstimatorKind::Cas,
        EstimatorKind::Exact,
    ] {
        assert_kill_point_parity(
            RunManifest::new(spec(kind), 200),
            &stream,
            473,
            &format!("kind-{kind:?}"),
        );
    }
}

#[test]
fn ensembles_restore_each_replica_seed_stably() {
    let stream = dynamic_stream(11, 1_200, 0.2);
    for k in [1usize, 4] {
        for mode in [EnsembleMode::Replicate, EnsembleMode::Partition] {
            let manifest = RunManifest::new(spec(EstimatorKind::Abacus).with_threads(2), 256)
                .with_ensemble(k, mode);
            let tag = format!("ensemble-{k}-{mode:?}");

            // Reference replica fingerprints from the uninterrupted run.
            let ref_dir = test_dir(&format!("{tag}-ref"));
            let mut reference = Checkpointer::create(&ref_dir, manifest.clone()).unwrap();
            for &element in &stream {
                reference.offer(element).unwrap();
            }
            reference.finish().unwrap();
            let reference_print = fingerprint(&mut reference);
            let replica_bits = |checkpointer: &Checkpointer| -> Vec<(u64, usize)> {
                let ensemble = checkpointer
                    .estimator()
                    .as_any()
                    .and_then(|any| any.downcast_ref::<Ensemble>())
                    .expect("checkpointed estimator should be an ensemble");
                (0..ensemble.replicas())
                    .map(|i| {
                        let replica = ensemble.replica(i);
                        (replica.estimate().to_bits(), replica.memory_edges())
                    })
                    .collect()
            };
            let reference_replicas = replica_bits(&reference);
            std::fs::remove_dir_all(&ref_dir).ok();

            // Kill mid-chunk (517 is off every cadence and chunk boundary),
            // resume, finish; replica i must equal replica i of the
            // reference — the per-replica derived seeds survive the round
            // trip through the manifest and snapshot.
            let dir = run_killed(manifest, &stream, 517, &format!("{tag}-kill"));
            let (resumed_print, recovery) = resume_and_finish(&dir, &stream);
            assert_eq!(reference_print, resumed_print, "{tag}");
            assert_eq!(
                reference_replicas,
                replica_bits(&recovery.checkpointer),
                "{tag}: per-replica parity",
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Asserts every graph-derived view of `circuit` equals its offline
/// recomputation on the circuit's current graph replica, bit for bit.
fn assert_views_match_recompute(circuit: &BoxedCircuit, context: &str) {
    let graph = circuit.graph();
    assert_eq!(
        *circuit.supports(),
        EdgeSupports::recompute(graph),
        "peredge diverged {context}"
    );
    assert_eq!(
        *circuit.view_state::<PerVertexView>().unwrap().counts(),
        VertexButterflyCounts::recompute(graph),
        "vertex diverged {context}"
    );
    let clustering = circuit.view_state::<ClusteringView>().unwrap().state();
    assert_eq!(
        *clustering,
        ClusteringState::recompute(graph),
        "clustering diverged {context}"
    );
    assert_eq!(
        clustering.coefficient().to_bits(),
        butterfly_clustering_coefficient(graph).to_bits(),
        "clustering coefficient diverged {context}"
    );
    let bitruss = circuit.supports();
    assert_eq!(
        bitruss.decomposition(graph),
        bitruss_decomposition(graph),
        "bitruss diverged {context}"
    );
    assert!(
        circuit.view_state::<AnomalyView>().is_some(),
        "anomaly view missing {context}"
    );
}

#[test]
fn five_view_circuit_resumes_with_views_rebuilt_from_the_restored_graph() {
    let stream = dynamic_stream(13, 1_000, 0.2);
    let manifest = RunManifest::new(spec(EstimatorKind::Abacus), 200).with_views(&ViewKind::ALL);
    let reference = run_uninterrupted(manifest.clone(), &stream, "circuit-ref");

    let dir = run_killed(manifest, &stream, 531, "circuit-kill");
    let recovery = Checkpointer::resume(&dir).unwrap();
    let mut checkpointer = recovery.checkpointer;

    // Satellite check: immediately after restore — before any new element —
    // the resubscribed views must already bit-match offline recomputation on
    // the restored graph replica (they are rebuilt from it, not replayed).
    let circuit = checkpointer
        .estimator()
        .as_any()
        .and_then(|any| any.downcast_ref::<BoxedCircuit>())
        .expect("checkpointed estimator should be a circuit");
    assert_eq!(circuit.views().len(), ViewKind::ALL.len());
    assert_eq!(circuit.elements(), checkpointer.elements());
    assert_views_match_recompute(circuit, "right after restore");

    let covered = checkpointer.elements() as usize;
    for &element in &stream[covered..] {
        checkpointer.offer(element).unwrap();
    }
    checkpointer.finish().unwrap();
    let resumed = fingerprint(&mut checkpointer);
    assert_eq!(reference, resumed, "circuit final state");
    let circuit = checkpointer
        .estimator()
        .as_any()
        .and_then(|any| any.downcast_ref::<BoxedCircuit>())
        .unwrap();
    assert_views_match_recompute(circuit, "at stream end");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Corruption matrix: every case must fall back cleanly or fail with a typed
// error — never panic, never resume from silently wrong state.
// ---------------------------------------------------------------------------

/// Builds a killed checkpoint directory with ≥ 2 retained snapshots and an
/// unsealed WAL tail, plus the stream and the uninterrupted fingerprint.
fn killed_fixture(tag: &str) -> (PathBuf, Vec<StreamElement>, Fingerprint) {
    let stream = dynamic_stream(19, 1_000, 0.2);
    let manifest = RunManifest::new(spec(EstimatorKind::Abacus), 256);
    let reference = run_uninterrupted(manifest.clone(), &stream, &format!("{tag}-ref"));
    let dir = run_killed(manifest, &stream, 700, &format!("{tag}-kill"));
    (dir, stream, reference)
}

fn snapshot_files(dir: &Path) -> Vec<PathBuf> {
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "absnap"))
        .collect();
    snaps.sort();
    snaps
}

fn wal_files(dir: &Path) -> Vec<PathBuf> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "abwl"))
        .collect();
    segments.sort();
    segments
}

fn truncate_file(path: &Path, drop_bytes: u64) {
    let len = std::fs::metadata(path).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    file.set_len(len.saturating_sub(drop_bytes)).unwrap();
}

fn flip_byte(path: &Path, offset_from_end: usize) {
    let mut bytes = std::fs::read(path).unwrap();
    let index = bytes.len() - 1 - offset_from_end;
    bytes[index] ^= 0x40;
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn corrupt_newest_snapshot_falls_back_and_still_converges() {
    // Four ways to break the newest snapshot; each must fall back to the
    // previous snapshot and still reach the uninterrupted fingerprint,
    // because the WAL retains everything past the older snapshot.
    type Corruption = fn(&Path);
    let cases: [(&str, Corruption); 4] = [
        ("truncated", |p| truncate_file(p, 7)),
        ("bad-magic", |p| {
            let mut bytes = std::fs::read(p).unwrap();
            bytes[0] = b'X';
            std::fs::write(p, bytes).unwrap();
        }),
        ("bad-version", |p| {
            let mut bytes = std::fs::read(p).unwrap();
            bytes[7] = 9; // the version byte right after the 7-byte magic
            std::fs::write(p, bytes).unwrap();
        }),
        ("bit-flip", |p| flip_byte(p, 40)),
    ];
    for (name, corrupt) in cases {
        let (dir, stream, reference) = killed_fixture(&format!("fallback-{name}"));
        let newest = snapshot_files(&dir).pop().unwrap();
        corrupt(&newest);
        let (resumed, recovery) = resume_and_finish(&dir, &stream);
        assert!(recovery.fell_back, "{name}: must report the fallback");
        assert_eq!(reference, resumed, "{name}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn corrupting_every_snapshot_is_a_typed_error_not_a_panic() {
    let (dir, _, _) = killed_fixture("all-snapshots");
    for snapshot in snapshot_files(&dir) {
        flip_byte(&snapshot, 20);
    }
    match Checkpointer::resume(&dir) {
        Err(PersistError::Corrupt(_) | PersistError::Truncated(_)) => {}
        other => panic!("expected a typed corruption error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_final_wal_record_is_dropped_and_reoffered() {
    let (dir, stream, reference) = killed_fixture("torn-tail");
    // Tear the unsealed tail segment mid-record: recovery must drop exactly
    // the torn record, and re-offering it from the stream reconverges.
    let tail = wal_files(&dir).pop().unwrap();
    truncate_file(&tail, 1);
    let recovery = Checkpointer::resume(&dir).unwrap();
    assert!(recovery.dropped_torn_tail, "torn tail must be reported");
    assert_eq!(recovery.snapshot_elements + recovery.replayed, 699);
    let mut checkpointer = recovery.checkpointer;
    for &element in &stream[checkpointer.elements() as usize..] {
        checkpointer.offer(element).unwrap();
    }
    checkpointer.finish().unwrap();
    assert_eq!(reference, fingerprint(&mut checkpointer));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flip_in_a_sealed_wal_segment_fails_closed() {
    let (dir, _, _) = killed_fixture("sealed-flip");
    // The first segment is sealed (the run checkpointed at 256 and 512);
    // flip a byte in the middle of its records, past the header.
    let sealed = wal_files(&dir).into_iter().next().unwrap();
    flip_byte(&sealed, 60);
    match Checkpointer::resume(&dir) {
        Err(_) => {} // typed PersistError by signature; the flip may land in
        // a payload (CRC mismatch → Corrupt) or a length varint (structural
        // Corrupt/Truncated) — any of these fails closed.
        Ok(_) => panic!("a sealed-segment bit flip must not resume"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_wal_segment_is_a_gap_error() {
    // Force the fallback snapshot into play (corrupt the newest), then
    // delete the segment that covers the fallback's replay range: the log
    // now starts *after* the snapshot position, which must be detected as a
    // gap, not silently skipped.
    let (dir, _, _) = killed_fixture("gap");
    let newest = snapshot_files(&dir).pop().unwrap();
    flip_byte(&newest, 40);
    let segments = wal_files(&dir);
    assert!(segments.len() >= 2, "fixture should have rotated segments");
    std::fs::remove_file(&segments[0]).unwrap();
    match Checkpointer::resume(&dir) {
        Err(PersistError::Gap { .. }) => {}
        other => panic!("expected Gap for a missing WAL segment, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary kill indices: sequential ABACUS and pipelined PARABACUS
    /// resume bit-identically from *any* interruption point.
    #[test]
    fn arbitrary_kill_points_resume_bit_identically(
        kill_at in 0usize..1_100,
        seed in 0u64..4,
        parallel in 0u8..2,
    ) {
        let parallel = parallel == 1;
        let stream = dynamic_stream(23 + seed, 900, 0.25);
        let kill_at = kill_at % stream.len();
        let spec = if parallel {
            EstimatorSpec::new(EstimatorKind::ParAbacus, 200)
                .with_seed(seed)
                .with_batch_size(64)
                .with_threads(2)
                .with_pipeline_depth(2)
        } else {
            EstimatorSpec::new(EstimatorKind::Abacus, 200).with_seed(seed)
        };
        assert_kill_point_parity(
            RunManifest::new(spec, 128),
            &stream,
            kill_at,
            &format!("prop-{parallel}-{seed}-{kill_at}"),
        );
    }
}
