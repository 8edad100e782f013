//! Persistent worker pool for PARABACUS's parallel counting phase.
//!
//! Spawning operating-system threads for every mini-batch costs hundreds of
//! microseconds per batch — more than the entire per-edge counting work of a
//! small batch on a laptop-scale sample — and flattens the speedup curves of
//! Figs. 8 and 9.  [`CountingPool`] therefore keeps `p` worker threads alive
//! for the lifetime of the estimator.
//!
//! Worker `j` owns a private replica of the sample and reads [`CountTask`]s
//! from its own FIFO channel.  Every worker receives one task per batch —
//! an empty chunk when the batch is shorter than `p` — because its replica
//! must roll through every sample mutation, in dispatch order, to hold the
//! pre-batch version of the next batch.
//!
//! A task carries cheap [`Arc`] handles to the batch's op log, elements and
//! cached sampler triplets.  A worker drops its task *before* reporting the
//! chunk result, so once the coordinator has collected every result of a
//! batch it again holds the only reference and can recycle the buffers.

use crate::probability::increment;
use crate::sample_graph::SampleGraph;
use crate::stats::ProcessingStats;
use abacus_graph::count_butterflies_with_edge;
use abacus_sampling::RandomPairingState;
use abacus_stream::StreamElement;
use crossbeam::channel::{Receiver, Sender};
use std::ops::Range;
use std::sync::Arc;
use std::thread::JoinHandle;

use super::versioned::VersionedDeltas;

/// One chunk of a mini-batch: roll a replica through the batch and count
/// the butterflies of the elements in `range` against their sample
/// versions on the way.
#[derive(Debug, Clone)]
pub(super) struct CountTask {
    /// Monotone id of the mini-batch this chunk belongs to.  With the
    /// pipelined engine several batches are in flight at once and their chunk
    /// results interleave on the shared result channel; the id lets the
    /// coordinator collect exactly one batch's results at a time.
    pub batch: u64,
    /// The batch's op log.
    pub deltas: Arc<VersionedDeltas>,
    /// The batch elements.
    pub elements: Arc<Vec<StreamElement>>,
    /// Pre-update Random Pairing triplets, one per batch element.
    pub triplets: Arc<Vec<RandomPairingState>>,
    /// The half-open element range this task counts (empty for a worker
    /// without elements in a short batch).
    pub range: Range<usize>,
    /// Which of the `p` static partitions this chunk is (for Fig. 10's
    /// per-thread workload attribution).
    pub chunk_index: usize,
    /// Memory budget `k` of the estimator (needed by Eq. 1).
    pub budget: usize,
    /// Buffer the chunk writes its increments into, recycled from an
    /// earlier chunk result (cleared before use).
    pub increments: Vec<f64>,
}

/// The result of one executed [`CountTask`].
#[derive(Debug, Clone)]
pub(super) struct ChunkResult {
    /// The mini-batch the result belongs to.
    pub batch: u64,
    /// The chunk the result belongs to.
    pub chunk_index: usize,
    /// The signed, extrapolated increment of every element of the chunk that
    /// discovered butterflies, in stream order.  The coordinator adds them to
    /// the estimate one at a time, exactly as ABACUS adds its per-element
    /// increments, so the two estimates agree bit for bit.
    pub increments: Vec<f64>,
    /// Work counters of the chunk.
    pub stats: ProcessingStats,
}

/// Executes one chunk on `replica`, which must hold the batch's pre-batch
/// sample version `S_0`; on return it holds the post-batch version.
///
/// The replica is rolled to `S_start` of the chunk, then each element `i`
/// is counted with ABACUS's kernel against the replica (which holds exactly
/// `S_i` at that point) and extrapolated with the increment of Eq. 1 before
/// position `i`'s mutations are applied; finally the rest of the batch is
/// rolled in.  This is the exact same code path the single-threaded
/// configuration runs inline, so estimates never depend on whether the pool
/// was engaged.  The task is consumed, so its `Arc` handles are released
/// before the result returns.
pub(super) fn execute_task(replica: &mut SampleGraph, task: CountTask) -> ChunkResult {
    let CountTask {
        batch,
        deltas,
        elements,
        triplets,
        range,
        chunk_index,
        budget,
        mut increments,
    } = task;
    increments.clear();
    let mut stats = ProcessingStats::default();
    deltas.roll(replica, 0..range.start);
    for position in range.clone() {
        let element = elements[position];
        let per_edge = count_butterflies_with_edge(&*replica, element.edge);
        let is_insert = element.delta.is_insert();
        if per_edge.butterflies > 0 {
            increments.push(
                increment(budget, triplets[position], is_insert) * per_edge.butterflies as f64,
            );
        }
        stats.record_element(is_insert, per_edge.butterflies, per_edge.comparisons);
        deltas.roll(replica, position..position + 1);
    }
    deltas.roll(replica, range.end..deltas.positions());
    ChunkResult {
        batch,
        chunk_index,
        increments,
        stats,
    }
}

/// What a worker reports per executed chunk: the result, or the panic
/// message if the chunk panicked.  Propagating panics through the channel
/// keeps a buggy kernel a loud test failure instead of a coordinator that
/// blocks forever on a result that will never arrive.
type WorkerReport = Result<ChunkResult, String>;

/// A fixed-size pool of persistent counting workers, each owning a replica
/// of the sample.
#[derive(Debug)]
pub(super) struct CountingPool {
    /// Worker `j`'s FIFO task queue.
    task_txs: Vec<Sender<CountTask>>,
    result_rx: Receiver<WorkerReport>,
    /// Results that arrived for a newer batch while an older one was being
    /// collected (workers finish chunks in arbitrary order across in-flight
    /// batches); handed out by a later
    /// [`collect_batch_into`](Self::collect_batch_into).
    parked: Vec<ChunkResult>,
    workers: Vec<JoinHandle<()>>,
}

impl CountingPool {
    /// Spawns `workers` persistent threads, each owning a clone of `sample`
    /// as its replica.
    pub fn new(workers: usize, sample: &SampleGraph) -> Self {
        assert!(workers >= 1, "a counting pool needs at least one worker");
        let (result_tx, result_rx) = crossbeam::channel::unbounded::<WorkerReport>();
        let (task_txs, handles) = (0..workers)
            .map(|index| {
                let (task_tx, task_rx) = crossbeam::channel::unbounded::<CountTask>();
                let result_tx = result_tx.clone();
                let mut replica = sample.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("parabacus-worker-{index}"))
                    .spawn(move || {
                        while let Ok(task) = task_rx.recv() {
                            // `execute_task` consumes the task, so its Arc
                            // handles are gone before the report is sent and
                            // the coordinator can recycle the batch's buffers
                            // once all its results arrived.
                            let report =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    execute_task(&mut replica, task)
                                }))
                                .map_err(|payload| panic_message(&payload));
                            let failed = report.is_err();
                            if result_tx.send(report).is_err() || failed {
                                break;
                            }
                        }
                    })
                    // lint:allow(panic-policy): pool construction cannot report errors through the infallible ButterflyCounter API, and a host that cannot spawn threads cannot run PARABACUS at all
                    .expect("failed to spawn PARABACUS worker thread");
                (task_tx, handle)
            })
            .unzip();
        CountingPool {
            task_txs,
            result_rx,
            parked: Vec::new(), // lint:allow(hot-path-alloc): one-time pool construction; parked entries are drained in place per batch
            workers: handles,
        }
    }

    /// Queues `task` on worker `worker`'s FIFO channel.
    pub fn submit(&self, worker: usize, task: CountTask) {
        self.task_txs[worker]
            .send(task)
            // lint:allow(panic-policy): a dead worker already propagated its own panic; this re-raises the crash on the coordinator by design (PR 2)
            .expect("PARABACUS worker threads terminated unexpectedly");
    }

    /// Collects exactly the `count` chunk results of mini-batch `batch` into
    /// `results` — cleared first, so the coordinator can hand the same vector
    /// back every batch and amortize its capacity — in chunk order, parking
    /// results of other in-flight batches for their own later collection.
    ///
    /// When [`collect_batch_into`](Self::collect_batch_into) returns, every
    /// worker that executed a chunk of `batch` has already dropped its task —
    /// and with it its `Arc` handles on that batch's buffers — so the
    /// coordinator can recycle them.
    /// # Panics
    /// Re-raises (as a coordinator panic) any panic that occurred on a worker
    /// thread while executing a chunk.
    pub fn collect_batch_into(&mut self, batch: u64, count: usize, results: &mut Vec<ChunkResult>) {
        results.clear();
        results.reserve(count);
        let mut index = 0;
        while index < self.parked.len() {
            if self.parked[index].batch == batch {
                results.push(self.parked.swap_remove(index));
            } else {
                index += 1;
            }
        }
        while results.len() < count {
            let report = self
                .result_rx
                .recv()
                // lint:allow(panic-policy): all senders vanishing mid-batch means a worker crashed without reporting; crash the coordinator rather than count short
                .expect("PARABACUS worker threads terminated unexpectedly");
            match report {
                Ok(result) if result.batch == batch => results.push(result),
                Ok(result) => self.parked.push(result),
                // lint:allow(panic-policy): worker panics are deliberately re-raised on the coordinator (documented `# Panics` contract)
                Err(message) => panic!("PARABACUS worker panicked: {message}"),
            }
        }
        // Workers finish in scheduler order.  Sorting by chunk index (at most
        // `p` results, trivially cheap) puts the chunks' increments back in
        // stream order, which is what makes every multi-threaded run
        // bit-identical to sequential ABACUS and to any other driver feeding
        // the same elements (see `tests/streaming_parity.rs`).
        results.sort_by_key(|result| result.chunk_index);
    }
}

/// Best-effort extraction of a human-readable panic message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Drop for CountingPool {
    fn drop(&mut self) {
        // Disconnect the task channels so idle workers exit their receive
        // loops, then wait for them to finish.
        self.task_txs.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parabacus::versioned::RecordingSample;
    use abacus_graph::Edge;
    use abacus_sampling::SampleStore;

    fn sample_with(edges: &[(u32, u32)]) -> SampleGraph {
        let mut sample = SampleGraph::new();
        for &(l, r) in edges {
            sample.store_insert(Edge::new(l, r));
        }
        sample
    }

    /// The pre-batch sample every test batch starts from.
    fn base_sample() -> SampleGraph {
        sample_with(&[(0, 11), (1, 10), (1, 11)])
    }

    fn triplets_for(len: usize) -> Vec<RandomPairingState> {
        vec![
            RandomPairingState {
                live_items: 3,
                bad_deletions: 0,
                good_deletions: 0
            };
            len
        ]
    }

    /// A task over a batch whose positions mutate nothing, so every version
    /// equals the base sample.
    fn task_for(elements: Vec<StreamElement>, range: Range<usize>) -> CountTask {
        let mut sample = base_sample();
        let mut deltas = VersionedDeltas::new();
        for _ in &elements {
            let _ = RecordingSample::new(&mut sample, &mut deltas);
        }
        let triplets = triplets_for(elements.len());
        CountTask {
            batch: 0,
            deltas: Arc::new(deltas),
            elements: Arc::new(elements),
            triplets: Arc::new(triplets),
            range,
            chunk_index: 0,
            budget: 100,
            increments: Vec::new(),
        }
    }

    #[test]
    fn execute_task_counts_and_extrapolates() {
        // Budget far above the live population: probability 1, increment ±1.
        let batch = vec![
            StreamElement::insert(Edge::new(0, 10)),
            StreamElement::delete(Edge::new(0, 10)),
        ];
        let result = execute_task(&mut base_sample(), task_for(batch, 0..2));
        // The insertion finds the butterfly (+1), the deletion removes it
        // (−1), reported in stream order.
        assert_eq!(result.increments, [1.0, -1.0]);
        assert_eq!(result.stats.elements, 2);
        assert_eq!(result.stats.discovered_butterflies, 2);
    }

    #[test]
    fn execute_task_respects_the_range() {
        let batch = vec![
            StreamElement::insert(Edge::new(0, 10)),
            StreamElement::insert(Edge::new(5, 50)),
        ];
        let result = execute_task(&mut base_sample(), task_for(batch, 1..2));
        assert_eq!(result.stats.elements, 1);
        assert!(result.increments.is_empty());
    }

    /// Every chunk counts against its own versions and leaves the replica
    /// at the post-batch sample, whichever range it covers.
    #[test]
    fn execute_task_rolls_the_replica_through_the_whole_batch() {
        // Element 0 closes a butterfly with the pre-batch sample; its
        // update inserts (0,10), and position 1's removes (1,11).  Element 1
        // touches only fresh vertices.
        let batch = vec![
            StreamElement::insert(Edge::new(0, 10)),
            StreamElement::insert(Edge::new(2, 12)),
        ];
        let mut sample = base_sample();
        let mut deltas = VersionedDeltas::new();
        RecordingSample::new(&mut sample, &mut deltas).store_insert(Edge::new(0, 10));
        RecordingSample::new(&mut sample, &mut deltas).store_remove(&Edge::new(1, 11));
        let deltas = Arc::new(deltas);
        for range in [0..2, 0..1, 1..2, 2..2] {
            let mut replica = base_sample();
            let result = execute_task(
                &mut replica,
                CountTask {
                    batch: 0,
                    deltas: Arc::clone(&deltas),
                    elements: Arc::new(batch.clone()),
                    triplets: Arc::new(triplets_for(2)),
                    range: range.clone(),
                    chunk_index: 0,
                    budget: 100,
                    increments: Vec::new(),
                },
            );
            let want = u64::from(range.contains(&0));
            assert_eq!(result.stats.discovered_butterflies, want, "{range:?}");
            assert_eq!(replica.edges(), sample.edges(), "{range:?}");
        }
    }

    #[test]
    fn pool_runs_tasks_and_returns_all_results() {
        let mut pool = CountingPool::new(4, &base_sample());
        let batch = vec![StreamElement::insert(Edge::new(0, 10)); 8];
        for chunk in 0..4usize {
            let mut task = task_for(batch.clone(), (chunk * 2)..(chunk * 2 + 2));
            task.chunk_index = chunk;
            pool.submit(chunk, task);
        }
        let mut results = Vec::new();
        pool.collect_batch_into(0, 4, &mut results);
        assert_eq!(results.len(), 4);
        for (i, result) in results.iter().enumerate() {
            assert_eq!(result.chunk_index, i, "results come back in chunk order");
            assert_eq!(result.stats.elements, 2);
            assert_eq!(result.stats.discovered_butterflies, 2);
        }
    }

    #[test]
    fn interleaved_batches_are_collected_separately() {
        let mut pool = CountingPool::new(2, &base_sample());
        let elements = vec![StreamElement::insert(Edge::new(0, 10)); 2];
        // Two in-flight batches with two chunks each, submitted interleaved.
        for batch_id in 0..2u64 {
            for chunk in 0..2usize {
                let mut task = task_for(elements.clone(), 0..2);
                task.batch = batch_id;
                task.chunk_index = chunk;
                pool.submit(chunk, task);
            }
        }
        // Collect the batches in order; results of batch 1 that complete
        // early must be parked, not lost and not misattributed.
        let mut results = Vec::new();
        for batch_id in 0..2u64 {
            // Reusing one vector across collections mirrors the coordinator.
            pool.collect_batch_into(batch_id, 2, &mut results);
            assert_eq!(results.len(), 2);
            assert!(results.iter().all(|r| r.batch == batch_id));
            assert_eq!(results.iter().map(|r| r.stats.elements).sum::<u64>(), 4);
        }
        assert!(pool.parked.is_empty());
    }

    #[test]
    fn workers_release_their_handles_before_reporting() {
        let mut pool = CountingPool::new(2, &base_sample());
        let elements = Arc::new(vec![StreamElement::insert(Edge::new(0, 10)); 4]);
        let mut task = task_for(vec![StreamElement::insert(Edge::new(0, 10)); 4], 0..4);
        task.elements = Arc::clone(&elements);
        pool.submit(0, task.clone());
        pool.submit(
            1,
            CountTask {
                range: 0..2,
                chunk_index: 1,
                ..task
            },
        );
        pool.collect_batch_into(0, 2, &mut Vec::new());
        // Both workers reported, so the only remaining strong reference to the
        // element vector is the local one.
        assert_eq!(Arc::strong_count(&elements), 1);
    }

    #[test]
    fn dropping_the_pool_joins_all_workers() {
        let pool = CountingPool::new(4, &SampleGraph::new());
        drop(pool); // must not hang or panic
    }
}
