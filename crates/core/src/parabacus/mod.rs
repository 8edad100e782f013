//! PARABACUS: mini-batch parallel butterfly counting (§V of the paper),
//! extended with a two-stage *pipelined* execution engine.
//!
//! ABACUS's workflow (count, then update the sample) is inverted per
//! mini-batch:
//!
//! 1. **Sequential sample-version creation** — the Random Pairing updates of
//!    all `M` edges in the batch are applied one after the other to the
//!    coordinator's sample; for every edge the pre-update bookkeeping triplet
//!    `{|E|, c_b, c_g}` is cached and every sample mutation is appended to the
//!    batch's op log ([`versioned`]).
//! 2. **Parallel per-edge counting** — the batch is split into `p` equal
//!    chunks.  Worker `j` owns a private replica of the sample and rolls it
//!    through the op log in batch order; for each element of its chunk it
//!    counts, with ABACUS's own kernel, the butterflies the edge forms with
//!    the replica — which holds exactly that element's sample version `S_i`
//!    at that point — and extrapolates with the increment computed from the
//!    cached triplet.
//! 3. **Reduction and consolidation** — once a batch's chunk results are
//!    collected, the coordinator adds each element's increment to the
//!    running estimate, one at a time and in stream order.
//!
//! Every worker receives a task for every batch, even an empty chunk when
//! the batch is shorter than `p`, because its replica must apply every
//! mutation to hold the next batch's pre-batch version.  The replicas are
//! cloned from the coordinator's sample when the pool starts, before phase 1
//! of the first dispatched batch; with one thread the coordinator keeps a
//! single replica and runs the same chunk function inline.
//!
//! # The pipeline
//!
//! In the paper's schedule the two phases strictly alternate: the coordinator
//! idles while the workers count, and all `p` workers idle during version
//! creation — the serial fraction that flattens the speedup curves of
//! Figs. 8–9.  With [`ParAbacusConfig::pipeline_depth`] `> 1` (the default is
//! 2) the engine overlaps them instead: after dispatching batch *i*'s chunks
//! to the worker pool, the coordinator immediately runs phase 1 of batch
//! *i+1* on its own sample while the workers are still rolling their
//! replicas through batch *i*.  Each worker's queue is FIFO, so its replica
//! sees the batches in dispatch order.
//!
//! Exactness (Theorem 5) is preserved: sample transitions and RNG draws
//! happen in stream order on the coordinator regardless of depth, every
//! element is counted by ABACUS's kernel against the sample state ABACUS
//! would see, and the increments are added with the values and in the order
//! ABACUS adds them, so estimates, sampler state and every counter are
//! bit-for-bit identical to sequential ABACUS — the tests assert this for
//! randomized insert/delete streams across pipeline depths and thread counts.
//!
//! The price of the overlap is *latency*, not correctness: up to
//! `pipeline_depth - 1` dispatched batches may not yet be reflected in
//! [`ParAbacus::estimate`] / [`ParAbacus::stats`].  [`ParAbacus::flush`] (and
//! therefore [`ButterflyCounter::process_stream`] and
//! [`ButterflyCounter::finish`]) drains the pipeline completely.

mod pool;
pub mod versioned;

use crate::config::ParAbacusConfig;
use crate::counter::ButterflyCounter;
use crate::sample_graph::SampleGraph;
use crate::stats::ProcessingStats;
use abacus_graph::csr::CsrSnapshot;
use abacus_graph::persist::{Decoder, Encoder, PersistError};
use abacus_sampling::{RandomPairing, RandomPairingState};
use abacus_stream::{EdgeDelta, StreamElement};
use pool::{execute_task, ChunkResult, CountTask, CountingPool};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::Arc;
use versioned::{RecordingSample, VersionedDeltas};

/// A dispatched mini-batch whose chunk results have not been collected yet.
#[derive(Debug)]
struct InFlightBatch {
    /// Monotone batch id (matches the `batch` tag of its chunk results).
    id: u64,
    /// The batch's op log; recycled once the batch is collected.
    deltas: Arc<VersionedDeltas>,
    /// The batch's elements; recycled as a future buffer once collected.
    elements: Arc<Vec<StreamElement>>,
    /// The batch's cached sampler triplets; recycled once collected.
    triplets: Arc<Vec<RandomPairingState>>,
}

/// The mini-batch parallel PARABACUS estimator.
///
/// Dropping the estimator with buffered elements or in-flight batches is
/// safe and never blocks on outstanding counting work beyond joining the
/// worker threads; the pending work is discarded.  Call
/// [`flush`](Self::flush) or [`finish`](ButterflyCounter::finish) first if
/// the final estimate is needed.
#[derive(Debug)]
pub struct ParAbacus {
    config: ParAbacusConfig,
    /// The coordinator's sample, reflecting phase 1 of every dispatched
    /// batch.
    sample: SampleGraph,
    /// Cumulative sample mutations recorded over all dispatched batches
    /// (each replica replays every one of them).
    replayed_ops: u64,
    policy: RandomPairing,
    rng: StdRng,
    estimate: f64,
    buffer: Vec<StreamElement>,
    stats: ProcessingStats,
    thread_comparisons: Vec<u64>,
    batches: u64,
    /// The worker pool and its replicas (`threads > 1`), started lazily
    /// before phase 1 of the first dispatched batch.
    pool: Option<CountingPool>,
    /// The coordinator's own replica when `threads == 1`, created at the
    /// same point.
    replica: Option<SampleGraph>,
    /// Dispatched-but-uncollected batches, oldest first (at most
    /// `pipeline_depth - 1` after a flush step).
    in_flight: VecDeque<InFlightBatch>,
    /// Op logs recycled from collected batches.
    spare_deltas: Vec<Arc<VersionedDeltas>>,
    /// Element vectors recycled from collected batches; each flush takes one
    /// back as the next staging buffer, so the steady state stops allocating
    /// a fresh batch-sized vector per flush.
    spare_elements: Vec<Vec<StreamElement>>,
    /// Sampler-triplet vectors recycled from collected batches.
    spare_triplets: Vec<Vec<RandomPairingState>>,
    /// Chunk-result vector handed to the pool on every collection (cleared,
    /// never dropped — its capacity is at most `threads` entries).
    spare_results: Vec<ChunkResult>,
    /// Increment buffers recycled from reduced chunk results; every chunk
    /// task takes one to write its elements' increments into.
    spare_increments: Vec<Vec<f64>>,
    timings: PhaseTimings,
}

/// Wall-clock time spent in each phase of the mini-batch workflow, summed
/// over all flushed batches.
///
/// Phase 1 is inherently sequential (Random Pairing updates + op
/// recording); useful for explaining where the speedup curves of Figs. 8–9
/// saturate (Amdahl's law on phase 1).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Seconds spent creating sample versions sequentially (phase 1).
    pub sequential_seconds: f64,
    /// Seconds the coordinator spent dispatching and waiting for per-edge
    /// counting results (phase 2).  In alternating mode (`pipeline_depth ==
    /// 1`) this is the counting wall clock; in pipelined mode it is only the
    /// *non-overlapped* remainder — the blocking wait left after phase 1 of
    /// the next batch already ran — so `counting_seconds` shrinking towards
    /// zero means the pipeline is hiding the parallel phase completely.
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
    ///         .with_threads(2)
    ///         .with_pipeline_depth(2),
    /// );
    /// for (l, r) in [(0u32, 10u32), (0, 11), (1, 10), (1, 11)] {
    ///     par.process(StreamElement::insert(Edge::new(l, r)));
    /// }
    /// // `finish` flushes the partial batch and drains the pipeline.
    /// assert_eq!(par.finish(), 1.0); // one butterfly, counted exactly
    /// ```
    #[must_use]
    pub fn new(config: ParAbacusConfig) -> Self {
        ParAbacus {
            config,
            sample: SampleGraph::with_budget(config.budget),
            replayed_ops: 0,
            policy: RandomPairing::new(config.budget),
            rng: StdRng::seed_from_u64(config.seed),
            estimate: 0.0,
            buffer: Vec::with_capacity(config.batch_size), // lint:allow(hot-path-alloc): one-time construction; the staging buffer is swapped with recycled vectors thereafter
            stats: ProcessingStats::default(),
            thread_comparisons: vec![0; config.threads], // lint:allow(hot-path-alloc): one-time construction; fixed `p`-sized table mutated in place
            batches: 0,
            pool: None,
            replica: None,
            in_flight: VecDeque::new(),
            spare_deltas: Vec::new(), // lint:allow(hot-path-alloc): one-time construction of the recycling pools themselves
            spare_elements: Vec::new(), // lint:allow(hot-path-alloc): one-time construction of the recycling pools themselves
            spare_triplets: Vec::new(), // lint:allow(hot-path-alloc): one-time construction of the recycling pools themselves
            spare_results: Vec::new(), // lint:allow(hot-path-alloc): one-time construction of the recycling pools themselves
            spare_increments: Vec::new(), // lint:allow(hot-path-alloc): one-time construction of the recycling pools themselves
            timings: PhaseTimings::default(),
        }
    }

    /// Cumulative per-phase wall-clock timings over all flushed batches.
    #[must_use]
    pub fn phase_timings(&self) -> PhaseTimings {
        self.timings
    }

    /// The configuration this estimator was built with.
    #[must_use]
    pub fn config(&self) -> ParAbacusConfig {
        self.config
    }

    /// The current sample (read-only; reflects phase 1 of every *dispatched*
    /// batch, which may run ahead of [`estimate`](ButterflyCounter::estimate)
    /// while batches are in flight).
    #[must_use]
    pub fn sample(&self) -> &SampleGraph {
        &self.sample
    }

    /// Always `None`: PARABACUS counts on its sample replicas and keeps no
    /// CSR counting snapshot, whatever [`ParAbacusConfig::snapshot`] says.
    /// The accessor stays so callers written against the snapshot-backed
    /// engine keep compiling.
    #[must_use]
    pub fn snapshot(&self) -> Option<&CsrSnapshot> {
        None
    }

    /// The Random Pairing bookkeeping triplet after the last dispatched
    /// batch.
    #[must_use]
    pub fn sampler_state(&self) -> RandomPairingState {
        self.policy.state()
    }

    /// Work counters accumulated over all *collected* batches (synchronised
    /// with the estimate; call [`flush`](Self::flush) to include in-flight
    /// batches).
    #[must_use]
    pub fn stats(&self) -> ProcessingStats {
        self.stats
    }

    /// Cumulative set-intersection membership checks performed by each worker
    /// thread (the per-thread workload of Fig. 10).
    #[must_use]
    pub fn thread_workloads(&self) -> &[u64] {
        &self.thread_comparisons
    }

    /// Number of mini-batches processed so far.
    #[must_use]
    pub fn batches_processed(&self) -> u64 {
        self.batches
    }

    /// Cumulative sample mutations recorded over all dispatched batches:
    /// the ops each sample replica replays while counting.
    #[must_use]
    pub fn replayed_ops(&self) -> u64 {
        self.replayed_ops
    }

    /// Number of elements buffered but not yet part of a dispatched batch.
    #[must_use]
    pub fn pending_elements(&self) -> usize {
        self.buffer.len()
    }

    /// Number of dispatched mini-batches whose results have not been
    /// collected into the estimate yet (at most `pipeline_depth - 1` between
    /// calls, zero after [`flush`](Self::flush)).
    #[must_use]
    pub fn in_flight_batches(&self) -> usize {
        self.in_flight.len()
    }

    /// Processes any buffered elements as a (possibly short) mini-batch and
    /// drains the pipeline, so that the estimate, the statistics, and the
    /// per-thread workloads reflect every element processed so far.
    ///
    /// [`ButterflyCounter::process_stream`] and
    /// [`ButterflyCounter::finish`] call this automatically at the end of the
    /// stream; call it manually whenever an up-to-date estimate is needed
    /// mid-stream.  Flushing mid-stream costs pipeline overlap (the next
    /// batch starts with an empty pipeline) but never affects the estimate's
    /// value.
    pub fn flush(&mut self) {
        if !self.buffer.is_empty() {
            self.flush_batch();
        }
        while !self.in_flight.is_empty() {
            self.collect_oldest();
        }
    }

    /// Starts the replicas, if they are not running, as clones of the
    /// coordinator's sample — which must hold the pre-batch state of the
    /// next batch to dispatch.
    fn ensure_replicas(&mut self) {
        if self.config.threads == 1 {
            if self.replica.is_none() {
                self.replica = Some(self.sample.clone());
            }
        } else if self.pool.is_none() {
            self.pool = Some(CountingPool::new(self.config.threads, &self.sample));
        }
    }

    /// Takes a uniquely owned, empty op log, recycling allocations from
    /// collected batches.
    fn take_delta_log(&mut self) -> Arc<VersionedDeltas> {
        let mut log = self
            .spare_deltas
            .pop()
            .unwrap_or_else(|| Arc::new(VersionedDeltas::new()));
        Arc::make_mut(&mut log).clear();
        log
    }

    /// Returns a collected batch's buffers to the recycling pools.  Every
    /// task that held them has been consumed, so the handles are unique.
    fn recycle(
        &mut self,
        deltas: Arc<VersionedDeltas>,
        elements: Arc<Vec<StreamElement>>,
        triplets: Arc<Vec<RandomPairingState>>,
    ) {
        if Arc::strong_count(&deltas) == 1 {
            self.spare_deltas.push(deltas);
        }
        if let Ok(mut elements) = Arc::try_unwrap(elements) {
            elements.clear();
            self.spare_elements.push(elements);
        }
        if let Ok(mut triplets) = Arc::try_unwrap(triplets) {
            triplets.clear();
            self.spare_triplets.push(triplets);
        }
    }

    /// Folds one chunk result into the running estimate and counters, and
    /// recycles its increment buffer.
    ///
    /// Chunks arrive in chunk order and each adds its increments one at a
    /// time, so the estimate goes through exactly the floating-point
    /// additions ABACUS performs and equals it bit for bit.
    fn reduce(&mut self, result: ChunkResult) {
        for increment in &result.increments {
            self.estimate += increment;
        }
        self.stats.merge(&result.stats);
        self.thread_comparisons[result.chunk_index] += result.stats.comparisons;
        self.spare_increments.push(result.increments);
    }

    /// Blocks until the oldest in-flight batch is fully counted, reduces its
    /// results, and recycles its buffers.
    fn collect_oldest(&mut self) {
        let entry = self
            .in_flight
            .pop_front()
            // lint:allow(panic-policy): every caller checks the pipeline is non-empty first; an empty pop is a coordinator bug worth crashing on
            .expect("collect_oldest called with an empty pipeline");
        // lint:allow(determinism): wall-clock timing feeds the diagnostic timings report only, never an estimate
        let wait_start = std::time::Instant::now();
        let mut results = std::mem::take(&mut self.spare_results);
        self.pool
            .as_mut()
            // lint:allow(panic-policy): the pool is created before the first batch dispatches and lives until drop or restore, which also drops the in-flight batches; an in-flight batch without it is a bug
            .expect("an in-flight batch requires a worker pool")
            .collect_batch_into(entry.id, self.config.threads, &mut results);
        self.timings.counting_seconds += wait_start.elapsed().as_secs_f64();
        for result in results.drain(..) {
            self.reduce(result);
        }
        self.spare_results = results;
        self.recycle(entry.deltas, entry.elements, entry.triplets);
    }

    fn flush_batch(&mut self) {
        let elements: Vec<StreamElement> = std::mem::replace(
            &mut self.buffer,
            // Stage the next batch into a recycled element vector (its
            // capacity survived `clear()`), falling back to a fresh one only
            // until the pipeline has produced a returnable buffer.
            self.spare_elements
                .pop()
                // lint:allow(hot-path-alloc): cold fallback — taken only until the pipeline returns its first recycled buffer
                .unwrap_or_else(|| Vec::with_capacity(self.config.batch_size)),
        );
        let m = elements.len();
        let batch_id = self.batches;
        self.batches += 1;
        // lint:allow(determinism): phase timing feeds the diagnostic timings report only, never an estimate
        let phase1_start = std::time::Instant::now();
        self.ensure_replicas();

        // --- Phase 1: sequential sample-version creation. ------------------
        // Cache the pre-update triplet of every edge and record the
        // mutations its update applies to the sample.
        let mut deltas_arc = self.take_delta_log();
        let deltas = Arc::make_mut(&mut deltas_arc);
        let mut triplets: Vec<RandomPairingState> = self.spare_triplets.pop().unwrap_or_default();
        triplets.reserve(m);
        for element in &elements {
            triplets.push(self.policy.state());
            let mut recorder = RecordingSample::new(&mut self.sample, deltas);
            match element.delta {
                EdgeDelta::Insert => {
                    self.policy
                        .insert(element.edge, &mut recorder, &mut self.rng);
                }
                EdgeDelta::Delete => {
                    self.policy.delete(&element.edge, &mut recorder);
                }
            }
        }
        self.replayed_ops += deltas.recorded_ops() as u64;
        self.timings.sequential_seconds += phase1_start.elapsed().as_secs_f64();

        // --- Phase 2: parallel per-edge counting. ---------------------------
        // `p` equal chunks over at most `m` elements; workers past the last
        // non-empty chunk get an empty range and only roll their replica.
        let threads = self.config.threads;
        let chunk_size = m.div_ceil(threads.min(m));
        let budget = self.config.budget;
        let elements = Arc::new(elements);
        let triplets = Arc::new(triplets);
        let chunk_task = |chunk_index: usize, increments: Vec<f64>| CountTask {
            batch: batch_id,
            deltas: Arc::clone(&deltas_arc),
            elements: Arc::clone(&elements),
            triplets: Arc::clone(&triplets),
            range: (chunk_index * chunk_size).min(m)..((chunk_index + 1) * chunk_size).min(m),
            chunk_index,
            budget,
            increments,
        };

        // lint:allow(determinism): phase timing feeds the diagnostic timings report only, never an estimate
        let phase2_start = std::time::Instant::now();
        if let Some(replica) = &mut self.replica {
            // Sequential configuration: count and reduce inline, on the
            // exact same per-chunk code path the workers run, so estimates
            // never depend on whether the pool was engaged.
            let increments = self.spare_increments.pop().unwrap_or_default();
            let result = execute_task(replica, chunk_task(0, increments));
            self.timings.counting_seconds += phase2_start.elapsed().as_secs_f64();
            self.reduce(result);
            self.recycle(deltas_arc, elements, triplets);
            return;
        }

        let pool = self
            .pool
            .as_ref()
            // lint:allow(panic-policy): `ensure_replicas` above starts the pool whenever `threads > 1`; reaching this without one is a coordinator bug
            .expect("a multi-threaded batch requires a worker pool");
        for worker in 0..threads {
            let increments = self.spare_increments.pop().unwrap_or_default();
            pool.submit(worker, chunk_task(worker, increments));
        }
        self.timings.counting_seconds += phase2_start.elapsed().as_secs_f64();
        self.in_flight.push_back(InFlightBatch {
            id: batch_id,
            deltas: deltas_arc,
            elements,
            triplets,
        });

        // Keep at most `pipeline_depth` batches open: with depth 1 this
        // collects the batch just dispatched (the paper's alternating
        // schedule); with depth 2 the next flush_batch call runs phase 1
        // while this batch is still being counted.
        while self.in_flight.len() >= self.config.pipeline_depth {
            self.collect_oldest();
        }
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
        // elements, sampled edges, and one replica of the sample per
        // counting thread.  Charged from the configuration rather than from
        // the replicas running right now, so a restored estimator reports
        // what an uninterrupted one does.
        self.sample.len() * (1 + self.config.threads) + self.buffer.len()
    }

    fn name(&self) -> &'static str {
        "PARABACUS"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    /// Serializes the estimator after a full [`flush`](Self::flush):
    /// buffered elements become part of the persisted state (as a short
    /// mini-batch) and the pipeline drains, so the payload is a pure function
    /// of the elements processed — no in-flight work to capture.
    ///
    /// Flushing at save time changes *where* batch boundaries fall, which is
    /// why the recovery harness drives reference and interrupted runs through
    /// the same checkpoint cadence: both flush at the same element indices,
    /// so batch boundaries — and therefore RNG draws and estimates — stay
    /// bit-aligned.  The worker pool, its replicas and the wall-clock
    /// timings are deliberately not serialized (they never affect results);
    /// the replicas are cloned from the restored sample at the next batch.
    ///
    /// The layout keeps a byte and two words from the snapshot-backed engine
    /// (whether a CSR snapshot was live, and its density marker).  They are
    /// written as zeros and ignored on restore, so payloads from either
    /// engine restore into the other's layout.
    fn save_state(&mut self) -> Result<Vec<u8>, PersistError> {
        self.flush();
        let mut enc = Encoder::new();
        enc.put_usize(self.config.budget);
        enc.put_u64(self.config.seed);
        enc.put_usize(self.config.batch_size);
        enc.put_usize(self.config.threads);
        enc.put_usize(self.config.pipeline_depth);
        enc.put_u8(0); // retired: CSR snapshot present
        let state = self.policy.state();
        enc.put_usize(state.live_items);
        enc.put_usize(state.bad_deletions);
        enc.put_usize(state.good_deletions);
        for word in self.rng.state() {
            enc.put_u64(word);
        }
        self.sample.encode_state(&mut enc);
        enc.put_u64(self.replayed_ops);
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
        // The replicas and in-flight batches belong to the state being
        // replaced: drop them, so the next batch clones fresh replicas from
        // the restored sample.
        self.pool = None;
        self.replica = None;
        self.in_flight.clear();
        self.buffer.clear();
        dec.get_u8()?; // retired: CSR snapshot present
        let triplet = RandomPairingState {
            live_items: dec.get_usize()?,
            bad_deletions: dec.get_usize()?,
            good_deletions: dec.get_usize()?,
        };
        self.policy = RandomPairing::from_state(self.config.budget, triplet);
        let mut rng_state = [0u64; 4];
        for word in &mut rng_state {
            *word = dec.get_u64()?;
        }
        self.rng = StdRng::from_state(rng_state);
        self.sample.restore_state(&mut dec)?;
        self.replayed_ops = dec.get_u64()?;
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
        use crate::config::SnapshotMode;
        let stream = dynamic_stream(3, 2_000, 0.2);
        let cut = 1234;
        for &(threads, depth, snapshot) in &[
            (1usize, 1usize, SnapshotMode::Off),
            (1, 3, SnapshotMode::On),
            (2, 2, SnapshotMode::Auto),
            (2, 4, SnapshotMode::On),
        ] {
            let config = ParAbacusConfig::new(256)
                .with_seed(11)
                .with_batch_size(96)
                .with_threads(threads)
                .with_pipeline_depth(depth)
                .with_snapshot(snapshot);
            let label = format!("threads {threads}, depth {depth}, snapshot {snapshot:?}");

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

    /// Restoring into an estimator that is mid-stream — batches in flight,
    /// elements buffered, replicas rolled through another stream — discards
    /// all of that and continues exactly like the run that saved.
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
        assert!(used.in_flight_batches() > 0, "no batch in flight");
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
    /// byte set and a non-zero density marker; they restore, and the run
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
        // byte; the two density words precede the trailer of estimate,
        // stats, per-thread workloads and batch count.
        let snapshot_byte = 5 * 8;
        let mut trailer = Encoder::new();
        crate::persist::encode_stats(&mut trailer, &ProcessingStats::default());
        let trailer = 8 + trailer.finish().len() + 8 * (2 + config.threads);
        let density = payload.len() - trailer - 16;
        let mut patched = payload.clone();
        assert_eq!(patched[snapshot_byte], 0);
        assert!(patched[density..density + 16].iter().all(|&b| b == 0));
        patched[snapshot_byte] = 1;
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

    /// The pipeline defers reduction, never correctness: while batches are in
    /// flight the estimate lags, and `flush` fully synchronises it.
    #[test]
    fn pipelined_estimates_synchronise_on_flush() {
        let stream = dynamic_stream(7, 2_000, 0.2);
        let mut par = ParAbacus::new(
            ParAbacusConfig::new(10_000)
                .with_seed(0)
                .with_batch_size(64)
                .with_threads(4)
                .with_pipeline_depth(3),
        );
        let mut seen_in_flight = 0usize;
        for element in &stream {
            par.process(*element);
            seen_in_flight = seen_in_flight.max(par.in_flight_batches());
            assert!(par.in_flight_batches() <= 2); // depth - 1
        }
        assert!(seen_in_flight > 0, "pipeline never filled");
        par.flush();
        assert_eq!(par.in_flight_batches(), 0);
        let truth = abacus_graph::count_butterflies(&final_graph(&stream)) as f64;
        assert!((par.estimate() - truth).abs() < 1e-6);
        // A second flush is a no-op.
        par.flush();
        assert!((par.estimate() - truth).abs() < 1e-6);
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

    /// Regression: dropping an estimator with a non-empty buffer (and batches
    /// still in flight) must neither hang nor panic — the pending work is
    /// discarded and the worker threads are joined.
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
        for element in &stream {
            par.process(*element);
        }
        assert!(par.pending_elements() > 0 || par.in_flight_batches() > 0);
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
        // The full sample, plus one replica of it per counting thread.
        assert_eq!(par.sample().len(), 8);
        assert_eq!(par.memory_edges(), 8 * (1 + par.config().threads));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Parity with sequential ABACUS holds for arbitrary batch sizes,
        /// thread counts, pipeline depths, budgets and deletion ratios.
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
