//! PARABACUS: mini-batch parallel butterfly counting (§V of the paper), run
//! as `p` lock-step ABACUS replicas.
//!
//! PARABACUS buffers `M` stream elements and processes them as a
//! mini-batch.  The paper applies the batch's Random Pairing updates in
//! order and counts the batch's elements in parallel, each against its own
//! sample version; Theorem 5 makes that exact.  This engine reaches the
//! same sample versions without storing them.  It keeps `p` replicas of
//! ABACUS's state — a sample, its Random Pairing policy and its RNG — all
//! seeded alike.  For every batch, every replica runs ABACUS's own
//! count-then-update step over the whole batch but counts only its
//! contiguous chunk, so each element is counted against the sample as of
//! the previous element, as ABACUS counts it.  The chunks' increments are
//! then added to the estimate one at a time, in stream order.
//!
//! The calling thread drives replica 0, and `p − 1` persistent worker
//! threads drive the others.  The workers start at the first batch as
//! clones of replica 0, so building an estimator spawns no thread, and a
//! worker panic is re-raised on the caller.
//! [`process`](ButterflyCounter::process) returns only once the batch its
//! element completed is in the estimate.
//!
//! Every replica makes the sample transitions and RNG draws sequential
//! ABACUS makes, every element is counted by ABACUS's kernel, and the
//! increments are added with the values and in the order ABACUS adds them.
//! Estimates, sampler state and every counter are therefore bit-for-bit
//! identical to ABACUS by construction, and with one thread PARABACUS runs
//! ABACUS's step batch by batch.  Debug builds also check every worker's
//! replica against replica 0 after each batch.
//!
//! The serial fraction is the price: every replica applies every Random
//! Pairing update of every batch, and only the counting is divided among
//! the threads.

mod pool;

use crate::abacus::Replica;
use crate::config::ParAbacusConfig;
use crate::counter::ButterflyCounter;
use crate::sample_graph::SampleGraph;
use crate::stats::ProcessingStats;
use abacus_graph::persist::{Decoder, Encoder, PersistError};
use abacus_sampling::RandomPairingState;
use abacus_stream::StreamElement;
use pool::{ChunkResult, ReplicaPool};

/// The mini-batch parallel PARABACUS estimator.
///
/// Dropping the estimator with buffered elements is safe: the buffered
/// elements are discarded and the worker threads are joined.  Call
/// [`flush`](Self::flush) or [`finish`](ButterflyCounter::finish) first if
/// the final estimate is needed.
#[derive(Debug)]
pub struct ParAbacus {
    config: ParAbacusConfig,
    /// Replica 0, driven by the calling thread.
    replica: Replica,
    /// Replicas `1..p` on their worker threads (`threads > 1`), started at
    /// the first batch after construction or restore.
    pool: Option<ReplicaPool>,
    estimate: f64,
    buffer: Vec<StreamElement>,
    stats: ProcessingStats,
    thread_comparisons: Vec<u64>,
    batches: u64,
    timings: PhaseTimings,
}

/// Wall-clock time spent processing mini-batches, summed over all batches.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Always 0: every replica applies the Random Pairing updates inside its
    /// batch step, so there is no separate sequential phase.  The field
    /// stays for callers written against the phase split.
    pub sequential_seconds: f64,
    /// Seconds [`process`](ButterflyCounter::process) and
    /// [`flush`](ParAbacus::flush) spent in batch steps, from the start of a
    /// batch until its last chunk is in the estimate.
    pub counting_seconds: f64,
}

impl ParAbacus {
    /// Creates an estimator from a configuration.
    ///
    /// ```
    /// use abacus_core::{ButterflyCounter, ParAbacus, ParAbacusConfig};
    /// use abacus_graph::Edge;
    /// use abacus_stream::StreamElement;
    ///
    /// let mut par = ParAbacus::new(
    ///     ParAbacusConfig::new(64)
    ///         .with_batch_size(2)
    ///         .with_threads(2),
    /// );
    /// for (l, r) in [(0u32, 10u32), (0, 11), (1, 10), (1, 11)] {
    ///     par.process(StreamElement::insert(Edge::new(l, r)));
    /// }
    /// // The second batch completed the butterfly, and `process` returned
    /// // with it in the estimate.
    /// assert_eq!(par.estimate(), 1.0); // one butterfly, counted exactly
    /// assert_eq!(par.finish(), 1.0);
    /// ```
    #[must_use]
    pub fn new(config: ParAbacusConfig) -> Self {
        ParAbacus {
            config,
            replica: Replica::new(config.budget, config.seed),
            pool: None,
            estimate: 0.0,
            buffer: Vec::with_capacity(config.batch_size), // lint:allow(hot-path-alloc): one-time construction; batches are staged in this vector and handed back with its capacity
            stats: ProcessingStats::default(),
            thread_comparisons: vec![0; config.threads], // lint:allow(hot-path-alloc): one-time construction; fixed `p`-sized table mutated in place
            batches: 0,
            timings: PhaseTimings::default(),
        }
    }

    /// Cumulative wall-clock timings over all processed batches.
    #[must_use]
    pub fn phase_timings(&self) -> PhaseTimings {
        self.timings
    }

    /// The configuration this estimator was built with.
    #[must_use]
    pub fn config(&self) -> ParAbacusConfig {
        self.config
    }

    /// The current sample: replica 0's, which every replica equals between
    /// batches.
    #[must_use]
    pub fn sample(&self) -> &SampleGraph {
        self.replica.sample()
    }

    /// Always `None`: every estimator counts on its sample, and no CSR
    /// mirror of it exists.  The accessor stays for callers written against
    /// the mirror-backed engine.
    #[must_use]
    pub fn snapshot(&self) -> Option<std::convert::Infallible> {
        None
    }

    /// The Random Pairing bookkeeping triplet after the last processed
    /// batch.
    #[must_use]
    pub fn sampler_state(&self) -> RandomPairingState {
        self.replica.sampler_state()
    }

    /// Work counters accumulated over all processed batches.
    #[must_use]
    pub fn stats(&self) -> ProcessingStats {
        self.stats
    }

    /// Cumulative set-intersection membership checks performed on each
    /// chunk index — the per-thread workload of Fig. 10, with chunk 0 on the
    /// calling thread.
    #[must_use]
    pub fn thread_workloads(&self) -> &[u64] {
        &self.thread_comparisons
    }

    /// Number of mini-batches processed so far.
    #[must_use]
    pub fn batches_processed(&self) -> u64 {
        self.batches
    }

    /// Always 0: every replica applies the Random Pairing updates itself,
    /// so no replica replays a log of sample mutations.  The accessor stays
    /// for callers written against the op-log engine.
    #[must_use]
    pub fn replayed_ops(&self) -> u64 {
        0
    }

    /// Number of elements buffered but not yet part of a processed batch.
    #[must_use]
    pub fn pending_elements(&self) -> usize {
        self.buffer.len()
    }

    /// Always 0: every batch is in the estimate by the time
    /// [`process`](ButterflyCounter::process) returns.  The accessor stays
    /// for callers written against the pipelined engine.
    #[must_use]
    pub fn in_flight_batches(&self) -> usize {
        0
    }

    /// Processes any buffered elements as a (possibly short) mini-batch, so
    /// that the estimate, the statistics and the per-thread workloads
    /// reflect every element processed so far.
    ///
    /// [`ButterflyCounter::process_stream`] and
    /// [`ButterflyCounter::finish`] call this at the end of the stream; call
    /// it manually whenever the estimate must cover a partial batch.
    /// Flushing mid-stream moves later batch boundaries but never changes
    /// the estimate's value.
    pub fn flush(&mut self) {
        if !self.buffer.is_empty() {
            self.flush_batch();
        }
    }

    /// Runs every replica's step over the buffered batch and adds the
    /// chunks' increments to the estimate in stream order.
    fn flush_batch(&mut self) {
        // lint:allow(determinism): batch timing feeds the diagnostic timings report only, never an estimate
        let start = std::time::Instant::now();
        let threads = self.config.threads;
        let m = self.buffer.len();
        // `p` equal chunks over at most `m` elements; workers past the last
        // non-empty chunk get an empty range and only update their replica.
        let chunk = m.div_ceil(threads.min(m));
        let replica = &mut self.replica;
        let estimate = &mut self.estimate;
        // Chunk 0 comes first in stream order, so the caller adds its
        // increments straight into the estimate.
        let (own, workers): (ProcessingStats, &[ChunkResult]) = if threads == 1 {
            let own = replica.step(&self.buffer, 0..m, |value| *estimate += value);
            self.buffer.clear();
            (own, &[])
        } else {
            self.pool
                .get_or_insert_with(|| ReplicaPool::new(threads - 1, replica))
                .count(&mut self.buffer, chunk, |batch| {
                    replica.step(batch, 0..chunk, |value| *estimate += value)
                })
        };
        self.stats.merge(&own);
        self.thread_comparisons[0] += own.comparisons;
        for result in workers {
            debug_assert_eq!(
                result.fingerprint,
                self.replica.fingerprint(),
                "replica {} fell out of lock-step with replica 0",
                result.chunk_index
            );
            for value in &result.increments {
                self.estimate += value;
            }
            self.stats.merge(&result.stats);
            self.thread_comparisons[result.chunk_index] += result.stats.comparisons;
        }
        self.batches += 1;
        self.timings.counting_seconds += start.elapsed().as_secs_f64();
    }
}

impl ButterflyCounter for ParAbacus {
    fn process(&mut self, element: StreamElement) {
        self.buffer.push(element);
        if self.buffer.len() >= self.config.batch_size {
            self.flush_batch();
        }
    }

    /// One pull of the source drivers stages exactly one mini-batch.
    fn preferred_chunk(&self) -> usize {
        self.config.batch_size
    }

    fn estimate(&self) -> f64 {
        self.estimate
    }

    fn finish(&mut self) -> f64 {
        self.flush();
        self.estimate
    }

    fn memory_edges(&self) -> usize {
        // Honest accounting, mirroring `Abacus::memory_edges`: buffered
        // elements and one sample per replica.  Charged from the
        // configuration rather than from the workers running right now, so
        // a restored estimator reports what an uninterrupted one does.
        self.replica.sample().len() * self.config.threads + self.buffer.len()
    }

    fn name(&self) -> &'static str {
        "PARABACUS"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    /// Serializes the estimator after a [`flush`](ParAbacus::flush):
    /// buffered elements become part of the persisted state (as a short
    /// mini-batch), so the payload is a pure function of the elements
    /// processed.
    ///
    /// Flushing at save time changes *where* batch boundaries fall, which is
    /// why the recovery harness drives reference and interrupted runs through
    /// the same checkpoint cadence: both flush at the same element indices,
    /// so batch boundaries — and therefore RNG draws and estimates — stay
    /// bit-aligned.  Only replica 0 is serialized, since every replica
    /// equals it between batches; the workers and the wall-clock timings are
    /// not (they never affect results), and the workers are cloned from the
    /// restored replica at the next batch.
    ///
    /// The replica is written by `Replica::encode_state`, as ABACUS and
    /// LOCAL write theirs.  The layout keeps words of earlier engines: a
    /// byte and two words of the snapshot-backed engine (whether a CSR
    /// snapshot was live, and its density marker), the op-log engine's
    /// replayed-ops count, and the pipeline depth, which restore still
    /// checks against the configuration.  The retired fields are written as
    /// zeros and ignored on restore, so payloads of either earlier engine
    /// restore here.
    fn save_state(&mut self) -> Result<Vec<u8>, PersistError> {
        self.flush();
        let mut enc = Encoder::new();
        enc.put_usize(self.config.budget);
        enc.put_u64(self.config.seed);
        enc.put_usize(self.config.batch_size);
        enc.put_usize(self.config.threads);
        enc.put_usize(self.config.pipeline_depth);
        enc.put_u8(0); // retired: CSR snapshot present
        self.replica.encode_state(&mut enc);
        enc.put_u64(0); // retired: replayed ops
        enc.put_u64(0); // retired: snapshot density marker, comparisons
        enc.put_u64(0); // retired: snapshot density marker, replayed ops
        enc.put_f64(self.estimate);
        crate::persist::encode_stats(&mut enc, &self.stats);
        enc.put_usize(self.thread_comparisons.len());
        for &comparisons in &self.thread_comparisons {
            enc.put_u64(comparisons);
        }
        enc.put_u64(self.batches);
        Ok(enc.finish())
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), PersistError> {
        let mut dec = Decoder::new(state);
        let budget = dec.get_usize()?;
        let seed = dec.get_u64()?;
        let batch_size = dec.get_usize()?;
        let threads = dec.get_usize()?;
        let pipeline_depth = dec.get_usize()?;
        if budget != self.config.budget
            || seed != self.config.seed
            || batch_size != self.config.batch_size
            || threads != self.config.threads
            || pipeline_depth != self.config.pipeline_depth
        {
            return Err(PersistError::Corrupt(
                "PARABACUS snapshot was written under a different configuration".into(),
            ));
        }
        // The workers' replicas and the buffered elements belong to the
        // state being replaced: drop them, so the next batch clones fresh
        // workers from the restored replica.
        self.pool = None;
        self.buffer.clear();
        dec.get_u8()?; // retired: CSR snapshot present
        self.replica.restore_state(&mut dec)?;
        dec.get_u64()?; // retired: replayed ops
        dec.get_u64()?; // retired: snapshot density marker, comparisons
        dec.get_u64()?; // retired: snapshot density marker, replayed ops
        self.estimate = dec.get_f64()?;
        self.stats = crate::persist::decode_stats(&mut dec)?;
        let workloads = dec.get_usize()?;
        if workloads != self.thread_comparisons.len() {
            return Err(PersistError::Corrupt(format!(
                "PARABACUS snapshot records {workloads} worker workloads, this estimator has {}",
                self.thread_comparisons.len()
            )));
        }
        for comparisons in &mut self.thread_comparisons {
            *comparisons = dec.get_u64()?;
        }
        self.batches = dec.get_u64()?;
        dec.expect_end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abacus::Abacus;
    use crate::config::AbacusConfig;
    use abacus_graph::Edge;
    use abacus_stream::generators::random::uniform_bipartite;
    use abacus_stream::{final_graph, inject_deletions_fast, DeletionConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dynamic_stream(seed: u64, edges: usize, alpha: f64) -> Vec<StreamElement> {
        let base = uniform_bipartite(120, 120, edges, &mut StdRng::seed_from_u64(seed));
        inject_deletions_fast(
            &base,
            DeletionConfig::new(alpha),
            &mut StdRng::seed_from_u64(seed ^ 0xDEAD),
        )
    }

    /// Theorem 5: PARABACUS produces the same counts as ABACUS, bit for bit,
    /// after each mini-batch (same seed, same budget), for the alternating
    /// schedule (depth 1) and every pipelined depth alike.
    #[test]
    fn matches_sequential_abacus_exactly() {
        let stream = dynamic_stream(1, 4_000, 0.2);
        for &(batch, threads, depth) in &[
            (1usize, 1usize, 1usize),
            (64, 1, 2),
            (128, 4, 1),
            (128, 4, 2),
            (500, 8, 2),
            (500, 8, 4),
            (997, 3, 3),
            (3, 8, 2),
        ] {
            let mut seq = Abacus::new(AbacusConfig::new(256).with_seed(9));
            seq.process_stream(&stream);

            let mut par = ParAbacus::new(
                ParAbacusConfig::new(256)
                    .with_seed(9)
                    .with_batch_size(batch)
                    .with_threads(threads)
                    .with_pipeline_depth(depth),
            );
            par.process_stream(&stream);

            let label = format!("batch {batch}, threads {threads}, depth {depth}");
            assert_eq!(
                seq.estimate().to_bits(),
                par.estimate().to_bits(),
                "{label}"
            );
            assert_eq!(par.in_flight_batches(), 0, "{label}");
            // Sampled state is identical (`memory_edges` is not: PARABACUS
            // also charges its replicas).
            assert_eq!(seq.sample().len(), par.sample().len(), "{label}");
            assert_eq!(
                seq.sampler_state(),
                par.sampler_state(),
                "sampler state must match for {label}"
            );
            // The total work is identical; only its distribution differs.
            assert_eq!(
                seq.stats().discovered_butterflies,
                par.stats().discovered_butterflies,
                "{label}"
            );
            assert_eq!(seq.stats().comparisons, par.stats().comparisons, "{label}");
        }
    }

    /// A snapshot taken mid-stream restores into a fresh estimator that then
    /// finishes the stream bit-identically to a reference run — provided the
    /// reference also checkpoints at the same element index, because
    /// `save_state` flushes and flushing moves batch boundaries.
    #[test]
    fn save_restore_mid_stream_is_bit_identical() {
        let stream = dynamic_stream(3, 2_000, 0.2);
        let cut = 1234;
        for &(threads, depth) in &[(1usize, 1usize), (1, 3), (2, 2), (2, 4)] {
            let config = ParAbacusConfig::new(256)
                .with_seed(11)
                .with_batch_size(96)
                .with_threads(threads)
                .with_pipeline_depth(depth);
            let label = format!("threads {threads}, depth {depth}");

            // Reference run: checkpoint at the cut (flush included), continue.
            let mut reference = ParAbacus::new(config);
            reference.process_stream(&stream[..cut]);
            let payload = reference.save_state().expect("save must succeed");
            reference.process_stream(&stream[cut..]);
            reference.flush();

            // Interrupted run: fresh estimator restored from the payload.
            let mut resumed = ParAbacus::new(config);
            resumed
                .restore_state(&payload)
                .expect("restore must succeed");
            resumed.process_stream(&stream[cut..]);
            resumed.flush();

            assert_eq!(
                reference.estimate().to_bits(),
                resumed.estimate().to_bits(),
                "{label}"
            );
            assert_eq!(
                reference.sampler_state(),
                resumed.sampler_state(),
                "{label}"
            );
            assert_eq!(reference.memory_edges(), resumed.memory_edges(), "{label}");
            assert_eq!(
                reference.stats().comparisons,
                resumed.stats().comparisons,
                "{label}"
            );
            assert_eq!(
                reference.save_state().unwrap(),
                resumed.save_state().unwrap(),
                "re-saved payloads must be byte-identical for {label}"
            );
        }
    }

    /// Restore refuses payloads written under different engine knobs: every
    /// fingerprint field is load-bearing for replay determinism.
    #[test]
    fn restore_rejects_other_configurations() {
        let stream = dynamic_stream(5, 400, 0.2);
        let base = ParAbacusConfig::new(128)
            .with_seed(2)
            .with_batch_size(64)
            .with_threads(2)
            .with_pipeline_depth(2);
        let mut source = ParAbacus::new(base);
        source.process_stream(&stream);
        let payload = source.save_state().unwrap();

        for other in [
            ParAbacusConfig::new(64)
                .with_seed(2)
                .with_batch_size(64)
                .with_threads(2)
                .with_pipeline_depth(2),
            base.with_seed(3),
            base.with_batch_size(65),
            base.with_threads(3),
            base.with_pipeline_depth(1),
        ] {
            let mut target = ParAbacus::new(other);
            assert!(
                matches!(
                    target.restore_state(&payload),
                    Err(PersistError::Corrupt(_))
                ),
                "fingerprint mismatch must be rejected"
            );
        }

        // Truncated payload fails closed too.
        let mut target = ParAbacus::new(base);
        assert!(target.restore_state(&payload[..payload.len() - 3]).is_err());
    }

    /// Restoring into an estimator that is mid-stream — elements buffered,
    /// replicas stepped through another stream — discards all of that and
    /// continues exactly like the run that saved.
    #[test]
    fn restore_into_a_used_estimator_continues_bit_identically() {
        let stream = dynamic_stream(17, 2_000, 0.2);
        let other = dynamic_stream(18, 1_000, 0.2);
        let cut = 1_100;
        let config = ParAbacusConfig::new(256)
            .with_seed(5)
            .with_batch_size(64)
            .with_threads(2)
            .with_pipeline_depth(3);

        let mut reference = ParAbacus::new(config);
        reference.process_stream(&stream[..cut]);
        let payload = reference.save_state().expect("save must succeed");
        reference.process_stream(&stream[cut..]);

        let mut used = ParAbacus::new(config);
        for element in &other[..700] {
            used.process(*element);
        }
        assert!(used.pending_elements() > 0, "no element buffered");
        used.restore_state(&payload).expect("restore must succeed");
        assert_eq!(used.in_flight_batches(), 0);
        assert_eq!(used.pending_elements(), 0);
        used.process_stream(&stream[cut..]);

        assert_eq!(reference.estimate().to_bits(), used.estimate().to_bits());
        assert_eq!(reference.sampler_state(), used.sampler_state());
        assert_eq!(reference.stats(), used.stats());
        assert_eq!(reference.thread_workloads(), used.thread_workloads());
        assert_eq!(reference.replayed_ops(), used.replayed_ops());
        assert_eq!(reference.memory_edges(), used.memory_edges());
        assert_eq!(reference.sample().edges(), used.sample().edges());
        assert_eq!(reference.save_state().unwrap(), used.save_state().unwrap());
    }

    /// Payloads written while a CSR snapshot was live carry the snapshot
    /// byte set and a non-zero density marker, and payloads of the op-log
    /// engine a non-zero replayed-ops count; they restore, and the run
    /// continues bit-exactly.
    #[test]
    fn payloads_with_the_snapshot_fields_set_restore_bit_exactly() {
        let stream = dynamic_stream(19, 2_000, 0.2);
        let cut = 900;
        let config = ParAbacusConfig::new(256)
            .with_seed(3)
            .with_batch_size(96)
            .with_threads(2)
            .with_pipeline_depth(2);
        let mut reference = ParAbacus::new(config);
        reference.process_stream(&stream[..cut]);
        let payload = reference.save_state().expect("save must succeed");
        reference.process_stream(&stream[cut..]);

        // Budget, seed, batch size, threads and depth precede the snapshot
        // byte; the replayed-ops word and the two density words precede the
        // trailer of estimate, stats, per-thread workloads and batch count.
        let snapshot_byte = 5 * 8;
        let mut trailer = Encoder::new();
        crate::persist::encode_stats(&mut trailer, &ProcessingStats::default());
        let trailer = 8 + trailer.finish().len() + 8 * (2 + config.threads);
        let density = payload.len() - trailer - 16;
        let replayed = density - 8;
        let mut patched = payload.clone();
        assert_eq!(patched[snapshot_byte], 0);
        assert!(patched[replayed..density + 16].iter().all(|&b| b == 0));
        patched[snapshot_byte] = 1;
        patched[replayed..density].copy_from_slice(&167_256u64.to_le_bytes());
        patched[density..density + 8].copy_from_slice(&123_456u64.to_le_bytes());
        patched[density + 8..density + 16].copy_from_slice(&7_890u64.to_le_bytes());

        let mut resumed = ParAbacus::new(config);
        resumed
            .restore_state(&patched)
            .expect("a payload with the snapshot fields set must restore");
        resumed.process_stream(&stream[cut..]);
        assert_eq!(reference.estimate().to_bits(), resumed.estimate().to_bits());
        assert_eq!(reference.sampler_state(), resumed.sampler_state());
        assert_eq!(reference.stats(), resumed.stats());
        assert_eq!(reference.thread_workloads(), resumed.thread_workloads());
        assert!(resumed.snapshot().is_none());
        assert_eq!(
            reference.save_state().unwrap(),
            resumed.save_state().unwrap()
        );
    }

    /// No batch lags: once the element that fills a batch has been
    /// processed, the estimate, the work counters and the sampler state
    /// equal ABACUS's after the same prefix, bit for bit.
    #[test]
    fn every_full_batch_is_in_the_estimate_when_process_returns() {
        let stream = dynamic_stream(7, 2_000, 0.2);
        for threads in 1..=8usize {
            for batch in [1usize, 7, 64, 333] {
                let label = format!("threads {threads}, batch {batch}");
                let mut seq = Abacus::new(AbacusConfig::new(256).with_seed(4));
                let mut par = ParAbacus::new(
                    ParAbacusConfig::new(256)
                        .with_seed(4)
                        .with_batch_size(batch)
                        .with_threads(threads)
                        .with_pipeline_depth(3),
                );
                for (i, element) in stream.iter().enumerate() {
                    seq.process(*element);
                    par.process(*element);
                    if (i + 1) % batch != 0 {
                        continue;
                    }
                    let at = format!("{label}, after element {}", i + 1);
                    assert_eq!(par.pending_elements(), 0, "{at}");
                    assert_eq!(par.in_flight_batches(), 0, "{at}");
                    assert_eq!(seq.estimate().to_bits(), par.estimate().to_bits(), "{at}");
                    assert_eq!(seq.stats(), par.stats(), "{at}");
                    assert_eq!(seq.sampler_state(), par.sampler_state(), "{at}");
                }
                assert_eq!(
                    par.batches_processed(),
                    (stream.len() / batch) as u64,
                    "{label}"
                );
            }
        }
    }

    /// `finish` processes the partial batch, drains the pipeline, and returns
    /// an estimate consistent with sequential ABACUS over the same stream.
    #[test]
    fn finish_flushes_partial_batches_and_matches_abacus() {
        let stream = dynamic_stream(11, 1_503, 0.15); // not a batch multiple
        let mut seq = Abacus::new(AbacusConfig::new(128).with_seed(4));
        seq.process_stream(&stream);

        let mut par = ParAbacus::new(
            ParAbacusConfig::new(128)
                .with_seed(4)
                .with_batch_size(250)
                .with_threads(4)
                .with_pipeline_depth(2),
        );
        for element in &stream {
            par.process(*element);
        }
        assert!(par.pending_elements() > 0, "stream must end mid-batch");
        let final_estimate = par.finish();
        assert_eq!(seq.estimate().to_bits(), final_estimate.to_bits());
        assert_eq!(par.estimate().to_bits(), final_estimate.to_bits());
        assert_eq!(par.pending_elements(), 0);
        assert_eq!(par.in_flight_batches(), 0);
        assert_eq!(seq.stats().comparisons, par.stats().comparisons);
    }

    /// Regression: dropping an estimator with a partial batch buffered (and
    /// its workers started) must neither hang nor panic — the buffered
    /// elements are discarded and the worker threads are joined.
    #[test]
    fn dropping_with_pending_work_is_safe() {
        let stream = dynamic_stream(13, 1_000, 0.2);
        let mut par = ParAbacus::new(
            ParAbacusConfig::new(5_000)
                .with_seed(0)
                .with_batch_size(300)
                .with_threads(4)
                .with_pipeline_depth(4),
        );
        // Three full batches start the workers; the last 100 elements stay
        // buffered.
        for element in &stream[..1_000] {
            par.process(*element);
        }
        assert_eq!(par.batches_processed(), 3);
        assert_eq!(par.pending_elements(), 100);
        drop(par); // must return promptly without counting the pending work
    }

    #[test]
    fn estimate_is_exact_when_budget_covers_stream() {
        let stream = dynamic_stream(3, 1_500, 0.25);
        let truth = abacus_graph::count_butterflies(&final_graph(&stream)) as f64;
        let mut par = ParAbacus::new(
            ParAbacusConfig::new(10_000)
                .with_seed(0)
                .with_batch_size(100)
                .with_threads(6),
        );
        par.process_stream(&stream);
        assert!((par.estimate() - truth).abs() < 1e-6);
        assert_eq!(par.name(), "PARABACUS");
        assert!(par.batches_processed() >= 18);
        assert_eq!(par.pending_elements(), 0);
    }

    #[test]
    fn flush_makes_partial_batches_visible() {
        let mut par = ParAbacus::new(
            ParAbacusConfig::new(100)
                .with_seed(0)
                .with_batch_size(1_000)
                .with_threads(2),
        );
        for &(l, r) in &[(0u32, 10u32), (0, 11), (1, 10), (1, 11)] {
            par.process(StreamElement::insert(Edge::new(l, r)));
        }
        // Not flushed yet: the batch is smaller than the batch size.
        assert_eq!(par.estimate(), 0.0);
        assert_eq!(par.pending_elements(), 4);
        par.flush();
        assert_eq!(par.estimate(), 1.0);
        assert_eq!(par.pending_elements(), 0);
        // Second flush is a no-op.
        par.flush();
        assert_eq!(par.estimate(), 1.0);
    }

    #[test]
    fn thread_workloads_are_recorded_and_balanced() {
        let stream = dynamic_stream(5, 6_000, 0.2);
        let threads = 4;
        let mut par = ParAbacus::new(
            ParAbacusConfig::new(512)
                .with_seed(1)
                .with_batch_size(1_000)
                .with_threads(threads),
        );
        par.process_stream(&stream);
        let workloads = par.thread_workloads();
        assert_eq!(workloads.len(), threads);
        let total: u64 = workloads.iter().sum();
        assert_eq!(total, par.stats().comparisons);
        assert!(total > 0, "expected some intersection work");
        // Load balance: no thread does more than twice the ideal share.
        let ideal = total as f64 / threads as f64;
        for (i, &w) in workloads.iter().enumerate() {
            assert!(
                (w as f64) < 2.5 * ideal + 1_000.0,
                "thread {i} overloaded: {w} vs ideal {ideal}"
            );
        }
    }

    #[test]
    fn memory_counts_buffered_elements() {
        let mut par = ParAbacus::new(ParAbacusConfig::new(8).with_batch_size(100));
        for i in 0..10u32 {
            par.process(StreamElement::insert(Edge::new(i, i)));
        }
        assert_eq!(par.memory_edges(), 10); // all buffered, none sampled yet
        par.flush();
        // One sample per replica, one replica per counting thread.
        assert_eq!(par.sample().len(), 8);
        assert_eq!(par.memory_edges(), 8 * par.config().threads);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Parity with sequential ABACUS holds for arbitrary batch sizes,
        /// thread counts, pipeline depths, budgets and deletion ratios.  In
        /// debug builds every batch also asserts that each worker's replica
        /// reports replica 0's triplet, sample length and RNG words, so a
        /// replica that falls out of lock-step fails here even when the
        /// estimate happens to survive it.
        #[test]
        fn parity_with_abacus(
            seed in 0u64..1_000,
            budget in 8usize..200,
            batch in 1usize..300,
            threads in 1usize..8,
            depth in 1usize..5,
            alpha in 0.0f64..0.4,
        ) {
            let stream = dynamic_stream(seed, 800, alpha);
            let mut seq = Abacus::new(AbacusConfig::new(budget).with_seed(seed));
            seq.process_stream(&stream);
            let mut par = ParAbacus::new(
                ParAbacusConfig::new(budget)
                    .with_seed(seed)
                    .with_batch_size(batch)
                    .with_threads(threads)
                    .with_pipeline_depth(depth),
            );
            par.process_stream(&stream);
            prop_assert_eq!(seq.estimate().to_bits(), par.estimate().to_bits());
            prop_assert_eq!(seq.sampler_state(), par.sampler_state());
        }
    }
}
