//! PARABACUS: mini-batch parallel butterfly counting (§V of the paper),
//! extended with a two-stage *pipelined* execution engine.
//!
//! ABACUS's workflow (count, then update the sample) is inverted per
//! mini-batch:
//!
//! 1. **Sequential sample-version creation** — the Random Pairing updates of
//!    all `M` edges in the batch are applied one after the other to the live
//!    sample; for every edge the pre-update bookkeeping triplet
//!    `{|E|, c_b, c_g}` is cached and every adjacency change is recorded as a
//!    versioned delta ([`versioned`]).
//! 2. **Parallel per-edge counting** — the batch is split into `p` equal
//!    chunks; each worker thread counts, for each of its edges, the
//!    butterflies the edge forms with *its* sample version (reconstructed
//!    through a [`VersionView`](versioned::VersionView)) and extrapolates
//!    with the increment computed from the cached triplet.
//! 3. **Reduction and consolidation** — once a batch's chunk results are
//!    collected, the coordinator adds each element's increment to the
//!    running estimate, one at a time and in stream order.
//!
//! # The pipeline
//!
//! In the paper's schedule the two phases strictly alternate: the coordinator
//! idles while the workers count, and all `p` workers idle during version
//! creation — the serial fraction that flattens the speedup curves of
//! Figs. 8–9.  With [`ParAbacusConfig::pipeline_depth`] `> 1` (the default is
//! 2) the engine overlaps them instead: after sealing batch *i*'s delta log
//! and dispatching its chunks to the worker pool, the coordinator immediately
//! runs phase 1 of batch *i+1* while the workers are still counting batch
//! *i*.
//!
//! Batch *i*'s workers hold `Arc` handles on the sample version they count
//! against, so batch *i+1*'s updates cannot touch that buffer.  Instead the
//! engine double-buffers: phase 1 of batch *i+1* writes into the buffer
//! recycled from batch *i−1* after bringing it up to date by replaying the
//! recorded op logs of the still-in-flight batches
//! ([`VersionedDeltas::replay_onto`], O(batch) work instead of an O(k) sample
//! clone).  `Arc`-level consolidation is thereby deferred: a buffer is only
//! reused once the batch counting against it has been collected and its
//! workers have dropped their handles.
//!
//! Exactness (Theorem 5) is preserved: sample transitions and RNG draws
//! happen in stream order on the coordinator regardless of depth, every
//! batch is counted against its own sealed versions, and the increments are
//! added with the values and in the order ABACUS adds them, so estimates are
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
use crate::snapshot::entries_to_edge_equivalents;
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
    /// Number of chunk results to collect.
    chunks: usize,
    /// The sealed sample version the batch counts against; recycled as the
    /// next spare buffer once the batch is collected.
    sample: Arc<SampleGraph>,
    /// The sealed delta log (also carries the op log replayed onto stale
    /// spare buffers while this batch is in flight).
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
    /// The live sample, reflecting phase 1 of every dispatched batch.
    sample: Arc<SampleGraph>,
    /// Frozen CSR mirror of the live sample that phase-2 counting runs
    /// against when enabled.  Kept in lock-step by replaying each batch's
    /// sealed op log (O(batch), mirroring `VersionedDeltas::replay_onto`);
    /// while older batches still pin the `Arc`, `Arc::make_mut` clones the
    /// flat arenas (a memcpy, not a rebuild) before patching.  `None` while
    /// the snapshot is off (mode `Off`, or `Auto` deciding the maintenance
    /// would cost more than the sorted kernels recover).
    snapshot: Option<Arc<CsrSnapshot>>,
    /// Cumulative sample mutations replayed across all sealed batches (the
    /// maintenance-cost side of the `Auto` profitability estimate).
    replayed_ops: u64,
    /// `(stats.comparisons, replayed_ops)` at the previous batch's snapshot
    /// decision: the `Auto` heuristic judges *marginal* (batch-over-batch)
    /// probe density, which converges to the workload's steady state within
    /// a batch or two, where the cumulative ratio would drag the sample-fill
    /// transient through the profitability band mid-stream.
    density_marker: (u64, u64),
    policy: RandomPairing,
    rng: StdRng,
    estimate: f64,
    buffer: Vec<StreamElement>,
    stats: ProcessingStats,
    thread_comparisons: Vec<u64>,
    batches: u64,
    pool: Option<CountingPool>,
    /// Dispatched-but-uncollected batches, oldest first (at most
    /// `pipeline_depth - 1` after a flush step).
    in_flight: VecDeque<InFlightBatch>,
    /// The sample buffer recycled from the most recently collected batch.
    /// Invariant: its state plus the op logs of `in_flight` (in order) equals
    /// the live sample — i.e. it is stale by exactly the in-flight batches.
    spare_sample: Option<Arc<SampleGraph>>,
    /// Delta-log allocations recycled from collected batches.
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
/// Phase 1 is inherently sequential (Random Pairing updates + delta
/// recording, plus — in pipelined mode — bringing the double-buffered sample
/// copy up to date); useful for explaining where the speedup curves of
/// Figs. 8–9 saturate (Amdahl's law on phase 1).
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
            sample: Arc::new(SampleGraph::with_budget(config.budget)),
            snapshot: None,
            replayed_ops: 0,
            density_marker: (0, 0),
            policy: RandomPairing::new(config.budget),
            rng: StdRng::seed_from_u64(config.seed),
            estimate: 0.0,
            buffer: Vec::with_capacity(config.batch_size), // lint:allow(hot-path-alloc): one-time construction; the staging buffer is swapped with recycled vectors thereafter
            stats: ProcessingStats::default(),
            thread_comparisons: vec![0; config.threads], // lint:allow(hot-path-alloc): one-time construction; fixed `p`-sized table mutated in place
            batches: 0,
            pool: None,
            in_flight: VecDeque::new(),
            spare_sample: None,
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

    /// The frozen CSR counting snapshot, when enabled (mirrors the live
    /// sample after the last dispatched batch).
    #[must_use]
    pub fn snapshot(&self) -> Option<&CsrSnapshot> {
        self.snapshot.as_deref()
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

    /// Cumulative sample mutations replayed into counting backings over all
    /// collected batches — the denominator of the probe-density ratio the
    /// `--snapshot auto` heuristic weighs [`stats`](Self::stats)
    /// `.comparisons` against (see `BENCH_parabacus.json`).
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

    /// Whether phase 2 of the batch just sealed should count against the
    /// frozen CSR snapshot.
    ///
    /// `On`/`Off` are unconditional.  `Auto` estimates profitability from
    /// observed work: maintaining the snapshot costs O(row) per replayed
    /// sample mutation, counting against it saves on intersection probes —
    /// but only inside a *band* of probe density (probes per replayed
    /// mutation, measured batch-over-batch via `density_marker`).  Below
    /// the band (mutation-dominated workloads, Orkut-like at ~0.1
    /// probes/element) the replay costs more than it saves.  The band also
    /// has a ceiling: far above it, the hash path is already cache-hot and
    /// the marginal kernel savings no longer cover the maintenance.  The fig9 sweeps behind
    /// `BENCH_parabacus.json` put the hub-skewed Trackers-like analog at
    /// density ~18 probes/op and the probe-dense Movielens-like analog at
    /// ~60; with the interned sample store and pooled view scratch, forcing
    /// the snapshot on measures *positive* at both densities (the old 32×
    /// ceiling — tuned when the hash slow path still paid per-probe malloc
    /// churn — sat between them and cost Movielens-like runs ~6% by keeping
    /// the snapshot off).  The 128× ceiling leaves the measured band with
    /// ~2× headroom while still refusing pathologically probe-dominated
    /// workloads where replay is pure overhead.  Marginal rather than
    /// cumulative density matters on exactly that boundary: while the
    /// sample fills, the cumulative ratio climbs *through* the band and
    /// wrongly enables the snapshot mid-stream on workloads whose steady
    /// state lies above it.  Which backing counts never changes estimates
    /// or probe-model comparisons, so this adaptivity is invisible in every
    /// reported number.
    fn snapshot_wanted(&self) -> bool {
        const AUTO_PROBES_PER_OP: u64 = 8;
        const AUTO_MAX_PROBES_PER_OP: u64 = 128;
        const AUTO_WARMUP_BATCHES: u64 = 2;
        /// Below this mini-batch size the per-batch savings no longer cover
        /// the snapshot's per-batch costs (measured: M = 500 regresses a few
        /// percent while M = 10000 gains — see `BENCH_parabacus.json`).
        const AUTO_MIN_BATCH: usize = 2_000;
        match self.config.snapshot {
            crate::config::SnapshotMode::Off => false,
            crate::config::SnapshotMode::On => true,
            crate::config::SnapshotMode::Auto => {
                let probes = self.stats.comparisons.saturating_sub(self.density_marker.0);
                let ops = self.replayed_ops.saturating_sub(self.density_marker.1);
                self.config.snapshot_enabled()
                    && self.config.batch_size >= AUTO_MIN_BATCH
                    && self.batches > AUTO_WARMUP_BATCHES
                    && probes >= AUTO_PROBES_PER_OP * ops
                    && probes <= AUTO_MAX_PROBES_PER_OP * ops
            }
        }
    }

    /// Takes a uniquely owned sample buffer holding the live state, for the
    /// next batch's phase 1 to mutate.
    ///
    /// Fast path: nothing is in flight, so the live `Arc` is unique and is
    /// simply unwrapped.  Pipelined path: the live buffer is pinned by
    /// in-flight workers, so the spare buffer (recycled from the last
    /// collected batch) is brought up to date by replaying the in-flight
    /// batches' op logs — O(total in-flight batch size), not O(k).  A full
    /// clone of the live sample is the fallback when no spare exists yet.
    fn take_writable_sample(&mut self) -> SampleGraph {
        let live = std::mem::replace(&mut self.sample, Arc::new(SampleGraph::new()));
        match Arc::try_unwrap(live) {
            Ok(sample) => {
                // The spare (if any) is stale by the batch we are about to
                // apply in place, with no in-flight op log to catch it up.
                self.spare_sample = None;
                sample
            }
            Err(live) => {
                let recycled = self
                    .spare_sample
                    .take()
                    .and_then(|arc| Arc::try_unwrap(arc).ok());
                match recycled {
                    Some(mut stale) => {
                        for entry in &self.in_flight {
                            entry.deltas.replay_onto(&mut stale);
                        }
                        stale
                    }
                    None => SampleGraph::clone(&live),
                }
            }
        }
    }

    /// Takes a uniquely owned, empty delta log, recycling allocations from
    /// collected batches.
    fn take_delta_log(&mut self) -> Arc<VersionedDeltas> {
        let mut log = self
            .spare_deltas
            .pop()
            .unwrap_or_else(|| Arc::new(VersionedDeltas::new()));
        Arc::make_mut(&mut log).clear();
        log
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
        self.thread_comparisons[result.chunk_index % self.config.threads] +=
            result.stats.comparisons;
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
            // lint:allow(panic-policy): the pool is created before the first batch dispatches and lives until drop; an in-flight batch without it is a bug
            .expect("an in-flight batch requires a worker pool")
            .collect_batch_into(entry.id, entry.chunks, &mut results);
        self.timings.counting_seconds += wait_start.elapsed().as_secs_f64();
        for result in results.drain(..) {
            self.reduce(result);
        }
        self.spare_results = results;
        // The workers dropped their handles before reporting, so the batch's
        // buffers are uniquely owned again and can back the next batch.
        if Arc::ptr_eq(&entry.sample, &self.sample) {
            // The batch counted against the live buffer itself (it was
            // dispatched with an empty pipeline); any older spare is now
            // stale beyond repair since this batch's log leaves the queue.
            self.spare_sample = None;
        } else {
            self.spare_sample = Some(entry.sample);
        }
        if Arc::strong_count(&entry.deltas) == 1 {
            self.spare_deltas.push(entry.deltas);
        }
        if let Ok(mut elements) = Arc::try_unwrap(entry.elements) {
            elements.clear();
            self.spare_elements.push(elements);
        }
        if let Ok(mut triplets) = Arc::try_unwrap(entry.triplets) {
            triplets.clear();
            self.spare_triplets.push(triplets);
        }
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

        // --- Phase 1: sequential sample-version creation. ------------------
        // Cache the pre-update triplet of every edge and record the deltas its
        // update applies to the sample.  The writable buffer is the live
        // sample itself when nothing is in flight, or the recycled
        // double-buffer while workers still count the previous batch.
        let mut sample = self.take_writable_sample();
        let mut deltas_arc = self.take_delta_log();
        let deltas = Arc::make_mut(&mut deltas_arc);
        let mut triplets: Vec<RandomPairingState> = self.spare_triplets.pop().unwrap_or_default();
        triplets.reserve(m);
        for (position, element) in elements.iter().enumerate() {
            triplets.push(self.policy.state());
            let mut recorder = RecordingSample::new(&mut sample, deltas, position as u32);
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

        // Freeze the delta log against the post-batch sample: one indexing
        // pass per touched vertex makes every versioned probe in phase 2 a
        // binary search.
        deltas.seal(&sample);
        self.sample = Arc::new(sample);

        // Bring the frozen CSR mirror up to the sealed post-batch state by
        // replaying the batch's op log — O(batch) row patches, with the
        // O(sample) compaction amortised behind the snapshot's churn
        // threshold.  Workers of still-in-flight batches pin the previous
        // snapshot `Arc`, in which case `make_mut` clones the arenas first.
        self.replayed_ops += deltas.recorded_ops() as u64;
        let snapshot_wanted = self.snapshot_wanted();
        // Start the next batch's marginal-density window at this decision
        // point (comparisons lag by the still-in-flight batches, which is a
        // deterministic function of the pipeline depth — noise-free, just
        // shifted by a batch).
        self.density_marker = (self.stats.comparisons, self.replayed_ops);
        if snapshot_wanted {
            match &mut self.snapshot {
                Some(snapshot) => {
                    let snapshot = Arc::make_mut(snapshot);
                    for (edge, added) in deltas.ops() {
                        snapshot.apply(edge, added);
                    }
                }
                None => {
                    // (Re)build wholesale from the sealed sample — only on
                    // enable transitions, which the cumulative statistics
                    // make rare.
                    self.snapshot = Some(Arc::new(CsrSnapshot::from_edges(
                        self.sample.edges().iter().copied(),
                    )));
                }
            }
        } else {
            self.snapshot = None;
        }
        self.timings.sequential_seconds += phase1_start.elapsed().as_secs_f64();

        // --- Phase 2: parallel per-edge counting. ---------------------------
        let threads = self.config.threads.min(m).max(1);
        let chunk_size = m.div_ceil(threads);
        let elements = Arc::new(elements);
        let triplets = Arc::new(triplets);
        let chunk_task = |chunk_index: usize, increments: Vec<f64>| CountTask {
            batch: batch_id,
            sample: Arc::clone(&self.sample),
            snapshot: self.snapshot.as_ref().map(Arc::clone),
            deltas: Arc::clone(&deltas_arc),
            elements: Arc::clone(&elements),
            triplets: Arc::clone(&triplets),
            range: (chunk_index * chunk_size)..((chunk_index + 1) * chunk_size).min(m),
            chunk_index,
            budget: self.config.budget,
            increments,
        };

        if self.config.threads == 1 {
            // Sequential configuration: no pool, count and reduce inline.
            // This is the exact same per-edge code path the workers run, so
            // estimates never depend on whether the pool was engaged.
            // lint:allow(determinism): phase timing feeds the diagnostic timings report only, never an estimate
            let phase2_start = std::time::Instant::now();
            let increments = self.spare_increments.pop().unwrap_or_default();
            let result = execute_task(chunk_task(0, increments));
            self.timings.counting_seconds += phase2_start.elapsed().as_secs_f64();
            self.reduce(result);
            self.spare_deltas.push(deltas_arc);
            // The task's Arc handles are gone, so the batch buffers are
            // uniquely owned again and can stage the next batch.
            if let Ok(mut elements) = Arc::try_unwrap(elements) {
                elements.clear();
                self.spare_elements.push(elements);
            }
            if let Ok(mut triplets) = Arc::try_unwrap(triplets) {
                triplets.clear();
                self.spare_triplets.push(triplets);
            }
            return;
        }

        // lint:allow(determinism): dispatch timing feeds the diagnostic timings report only, never an estimate
        let dispatch_start = std::time::Instant::now();
        let pool = self
            .pool
            .get_or_insert_with(|| CountingPool::new(self.config.threads));
        for chunk_index in 0..threads {
            let increments = self.spare_increments.pop().unwrap_or_default();
            pool.submit(chunk_task(chunk_index, increments));
        }
        self.timings.counting_seconds += dispatch_start.elapsed().as_secs_f64();
        self.in_flight.push_back(InFlightBatch {
            id: batch_id,
            chunks: threads,
            sample: Arc::clone(&self.sample),
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
        // elements, sampled edges, plus the edge equivalents of the CSR
        // snapshot arenas.
        let aux = self
            .snapshot
            .as_deref()
            .map_or(0, CsrSnapshot::resident_entries);
        self.sample.len() + self.buffer.len() + entries_to_edge_equivalents(aux)
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
    /// bit-aligned.  The ephemeral double-buffers, the worker pool, and the
    /// wall-clock timings are deliberately not serialized (they never affect
    /// results); the CSR snapshot is rebuilt from the restored sample.
    fn save_state(&mut self) -> Result<Vec<u8>, PersistError> {
        self.flush();
        if let Some(snapshot) = &mut self.snapshot {
            Arc::make_mut(snapshot).compact();
        }
        let mut enc = Encoder::new();
        enc.put_usize(self.config.budget);
        enc.put_u64(self.config.seed);
        enc.put_usize(self.config.batch_size);
        enc.put_usize(self.config.threads);
        enc.put_usize(self.config.pipeline_depth);
        enc.put_u8(u8::from(self.snapshot.is_some()));
        let state = self.policy.state();
        enc.put_usize(state.live_items);
        enc.put_usize(state.bad_deletions);
        enc.put_usize(state.good_deletions);
        for word in self.rng.state() {
            enc.put_u64(word);
        }
        self.sample.encode_state(&mut enc);
        enc.put_u64(self.replayed_ops);
        enc.put_u64(self.density_marker.0);
        enc.put_u64(self.density_marker.1);
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
        // Snapshot presence is *state* under `Auto` (decided per batch), not
        // configuration — apply it rather than checking it.
        let snapshot_present = dec.get_u8()? != 0;
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
        Arc::make_mut(&mut self.sample).restore_state(&mut dec)?;
        self.replayed_ops = dec.get_u64()?;
        self.density_marker = (dec.get_u64()?, dec.get_u64()?);
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
        dec.expect_end()?;
        self.snapshot = snapshot_present
            .then(|| Arc::new(CsrSnapshot::from_edges(self.sample.edges().iter().copied())));
        self.buffer.clear();
        self.spare_sample = None;
        Ok(())
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
            // Sampled state is identical; `memory_edges` itself may differ by
            // the lazily built sorted caches each code path happened to touch.
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

    /// The frozen-snapshot ablation: with identical seeds, snapshot-backed
    /// and hash-backed counting produce the same estimates (bit-equal at one
    /// thread), identical comparisons, and a snapshot in lock-step with the
    /// live sample, across pipeline depths.
    #[test]
    fn snapshot_backing_is_an_exact_ablation() {
        use crate::config::SnapshotMode;
        let stream = dynamic_stream(21, 3_000, 0.2);
        for &(threads, depth) in &[(1usize, 1usize), (1, 3), (4, 2)] {
            let base = ParAbacusConfig::new(300)
                .with_seed(8)
                .with_batch_size(128)
                .with_threads(threads)
                .with_pipeline_depth(depth);
            let mut with = ParAbacus::new(base.with_snapshot(SnapshotMode::On));
            let mut without = ParAbacus::new(base.with_snapshot(SnapshotMode::Off));
            with.process_stream(&stream);
            without.process_stream(&stream);
            assert_eq!(
                with.estimate().to_bits(),
                without.estimate().to_bits(),
                "threads {threads}, depth {depth}"
            );
            assert_eq!(with.stats().comparisons, without.stats().comparisons);
            assert_eq!(with.sampler_state(), without.sampler_state());
            assert_eq!(
                with.snapshot().expect("snapshot enabled").num_edges(),
                with.sample().len(),
                "snapshot fell out of lock-step (threads {threads}, depth {depth})"
            );
            assert!(without.snapshot().is_none());
        }
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
        assert!(par.memory_edges() <= 8);
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
