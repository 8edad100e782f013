//! The persistent worker threads that drive PARABACUS's lock-step ABACUS
//! replicas.
//!
//! Every [`Replica`] of one estimator starts from the same state and applies
//! the same elements in the same order, so all of them stay identical; each
//! one counts only its own chunk of every batch ([`Replica::step`]).
//!
//! Spawning operating-system threads for every mini-batch costs hundreds of
//! microseconds per batch — more than the per-edge work of a small batch —
//! so [`ReplicaPool`] keeps `p − 1` worker threads alive for the lifetime of
//! the estimator, worker `j` owning replica `j + 1`.  The calling thread
//! drives replica 0 itself.  Each batch reaches the workers as an [`Arc`]
//! handle on the pool's element vector; a worker drops its handle *before*
//! reporting its chunk, so once every report is in, the pool again owns the
//! vector outright and hands it back as the next staging buffer.

use crate::abacus::{Fingerprint, Replica};
use crate::engine::panic_message;
use crate::stats::ProcessingStats;
use abacus_stream::StreamElement;
use crossbeam::channel::{Receiver, Sender};
use std::ops::Range;
use std::sync::Arc;
use std::thread::JoinHandle;

/// One worker's share of a mini-batch: step its replica through the whole
/// batch, counting the elements in `range`.
#[derive(Debug)]
pub(super) struct CountTask {
    /// The batch elements.
    pub elements: Arc<Vec<StreamElement>>,
    /// The half-open element range this task counts (empty for a worker
    /// without elements in a short batch).
    pub range: Range<usize>,
    /// Which of the `p` static partitions this chunk is (for Fig. 10's
    /// per-thread workload attribution).
    pub chunk_index: usize,
    /// Buffer the chunk writes its increments into, recycled from an
    /// earlier chunk result (cleared before use).
    pub increments: Vec<f64>,
}

/// The result of one executed [`CountTask`].
#[derive(Debug)]
pub(super) struct ChunkResult {
    /// The chunk the result belongs to.
    pub chunk_index: usize,
    /// The increments [`Replica::step`] produced for the chunk, in stream
    /// order.  The caller adds them to the estimate one at a time, exactly
    /// as ABACUS adds its per-element increments.
    pub increments: Vec<f64>,
    /// Work counters of the chunk.
    pub stats: ProcessingStats,
    /// The replica's state after the batch.
    pub fingerprint: Fingerprint,
}

/// Executes one chunk on `replica`.  The task is consumed, so its [`Arc`]
/// handle on the batch is released before the result returns.
pub(super) fn execute_task(replica: &mut Replica, task: CountTask) -> ChunkResult {
    let CountTask {
        elements,
        range,
        chunk_index,
        mut increments,
    } = task;
    increments.clear();
    let stats = replica.step(&elements, range, |value| increments.push(value));
    ChunkResult {
        chunk_index,
        increments,
        stats,
        fingerprint: replica.fingerprint(),
    }
}

/// What a worker reports per executed chunk: the result, or the panic
/// message if the chunk panicked.  Propagating panics through the channel
/// keeps a buggy kernel a loud failure instead of a caller that blocks
/// forever on a result that will never arrive.
type WorkerReport = Result<ChunkResult, String>;

/// The `p − 1` persistent workers, each owning one replica.
#[derive(Debug)]
pub(super) struct ReplicaPool {
    /// Worker `j`'s task queue; it counts chunk `j + 1`.
    task_txs: Vec<Sender<CountTask>>,
    result_rx: Receiver<WorkerReport>,
    /// The batch being counted.  Between batches the pool holds the only
    /// handle, and the vector is empty.
    batch: Arc<Vec<StreamElement>>,
    /// The workers' results of the last batch, in chunk order; their
    /// increment buffers are reused by the next batch's tasks.
    results: Vec<ChunkResult>,
    workers: Vec<JoinHandle<()>>,
}

impl ReplicaPool {
    /// Spawns `workers` threads, each owning a clone of `replica`.
    pub fn new(workers: usize, replica: &Replica) -> Self {
        let (result_tx, result_rx) = crossbeam::channel::unbounded::<WorkerReport>();
        let (task_txs, handles) = (0..workers)
            .map(|index| {
                let (task_tx, task_rx) = crossbeam::channel::unbounded::<CountTask>();
                let result_tx = result_tx.clone();
                let mut replica = replica.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("parabacus-worker-{index}"))
                    .spawn(move || {
                        while let Ok(task) = task_rx.recv() {
                            let report =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    execute_task(&mut replica, task)
                                }))
                                .map_err(panic_message);
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
        ReplicaPool {
            task_txs,
            result_rx,
            batch: Arc::default(),
            results: Vec::new(), // lint:allow(hot-path-alloc): one-time pool construction; the vector is cleared, never dropped, per batch
            workers: handles,
        }
    }

    /// Counts one batch of `chunk`-sized chunks: queues chunks `1..p` on the
    /// workers, runs `own` — chunk 0 on the caller's replica — on the
    /// calling thread meanwhile, and waits for every worker.
    ///
    /// `batch` is moved into the pool for the duration and comes back
    /// cleared, with its capacity.  Returns what `own` returned and the
    /// workers' results in chunk order.
    ///
    /// # Panics
    /// Re-raises (as a caller panic) any panic that occurred on a worker
    /// thread while executing a chunk.
    pub fn count<R>(
        &mut self,
        batch: &mut Vec<StreamElement>,
        chunk: usize,
        own: impl FnOnce(&[StreamElement]) -> R,
    ) -> (R, &[ChunkResult]) {
        std::mem::swap(self.staging(), batch);
        let m = self.batch.len();
        for (worker, task_tx) in self.task_txs.iter().enumerate() {
            let chunk_index = worker + 1;
            let increments = self
                .results
                .pop()
                .map(|result| result.increments)
                .unwrap_or_default();
            task_tx
                .send(CountTask {
                    elements: Arc::clone(&self.batch),
                    range: (chunk_index * chunk).min(m)..((chunk_index + 1) * chunk).min(m),
                    chunk_index,
                    increments,
                })
                // lint:allow(panic-policy): a dead worker already reported its own panic, which re-raised on the caller; sending to it again is a caller bug worth crashing on
                .expect("PARABACUS worker threads terminated unexpectedly");
        }
        self.results.clear();
        let own = own(&self.batch);
        while self.results.len() < self.task_txs.len() {
            let report = self
                .result_rx
                .recv()
                // lint:allow(panic-policy): all senders vanishing mid-batch means a worker crashed without reporting; crash the caller rather than count short
                .expect("PARABACUS worker threads terminated unexpectedly");
            match report {
                Ok(result) => self.results.push(result),
                // lint:allow(panic-policy): worker panics are deliberately re-raised on the caller (documented `# Panics` contract)
                Err(message) => panic!("PARABACUS worker panicked: {message}"),
            }
        }
        // Workers finish in scheduler order; sorting (at most `p − 1`
        // results) puts the chunks' increments back in stream order.
        self.results.sort_by_key(|result| result.chunk_index);
        std::mem::swap(self.staging(), batch);
        batch.clear();
        (own, &self.results)
    }

    /// The batch vector, owned outright: no worker holds a handle between
    /// batches, since each drops its task before reporting.
    fn staging(&mut self) -> &mut Vec<StreamElement> {
        Arc::get_mut(&mut self.batch)
            // lint:allow(panic-policy): every worker dropped its handle before its report was collected; a shared batch here is a pool bug
            .expect("a worker still holds the previous batch")
    }
}

impl Drop for ReplicaPool {
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
    use abacus_graph::Edge;

    fn ins(l: u32, r: u32) -> StreamElement {
        StreamElement::insert(Edge::new(l, r))
    }

    /// The replica every test batch starts from: budget `k`, holding
    /// three edges of the butterfly {0, 1} × {10, 11}.
    fn base_replica(budget: usize) -> Replica {
        let mut replica = Replica::new(budget, 7);
        replica.step(&[ins(0, 11), ins(1, 10), ins(1, 11)], 0..0, |_| {});
        replica
    }

    fn task_for(elements: Vec<StreamElement>, range: Range<usize>) -> CountTask {
        CountTask {
            elements: Arc::new(elements),
            range,
            chunk_index: 0,
            increments: Vec::new(),
        }
    }

    #[test]
    fn execute_task_counts_and_extrapolates() {
        // Budget far above the live population: probability 1, increment ±1.
        let batch = vec![ins(0, 10), StreamElement::delete(Edge::new(0, 10))];
        let result = execute_task(&mut base_replica(100), task_for(batch, 0..2));
        // The insertion finds the butterfly (+1), the deletion removes it
        // (−1), reported in stream order.
        assert_eq!(result.increments, [1.0, -1.0]);
        assert_eq!(result.stats.elements, 2);
        assert_eq!(result.stats.discovered_butterflies, 2);
    }

    #[test]
    fn execute_task_respects_the_range() {
        let batch = vec![ins(0, 10), ins(5, 50)];
        let result = execute_task(&mut base_replica(100), task_for(batch, 1..2));
        assert_eq!(result.stats.elements, 1);
        assert!(result.increments.is_empty());
    }

    /// Every chunk counts against the sample as of its own elements and
    /// leaves the replica in the post-batch state, whichever range it
    /// covers.
    #[test]
    fn execute_task_rolls_the_replica_through_the_whole_batch() {
        // Budget 3 keeps the sample full, so element 1 draws from the RNG
        // and may evict an edge of the butterfly element 2 then closes.
        let batch = vec![ins(0, 10), ins(2, 12), ins(2, 10), ins(2, 11)];
        let mut reference = base_replica(3);
        let full = execute_task(&mut reference, task_for(batch.clone(), 0..4));
        for range in [0..4, 0..1, 1..3, 3..4, 4..4] {
            let mut replica = base_replica(3);
            let result = execute_task(&mut replica, task_for(batch.clone(), range.clone()));
            assert_eq!(result.fingerprint, full.fingerprint, "{range:?}");
            assert_eq!(
                replica.sample().edges(),
                reference.sample().edges(),
                "{range:?}"
            );
            assert_eq!(result.stats.elements, range.len() as u64, "{range:?}");
        }
    }

    #[test]
    fn pool_runs_tasks_and_returns_all_results() {
        let batch: Vec<StreamElement> = (0..8).map(|i| ins(20 + i, 30 + i)).collect();
        let mut own_replica = base_replica(100);
        let mut pool = ReplicaPool::new(3, &own_replica);
        let mut staged = batch.clone();
        let (own, results) = pool.count(&mut staged, 2, |elements| {
            own_replica.step(elements, 0..2, |_| {})
        });
        assert_eq!(own.elements, 2);
        assert_eq!(results.len(), 3);
        for (i, result) in results.iter().enumerate() {
            assert_eq!(
                result.chunk_index,
                i + 1,
                "results come back in chunk order"
            );
            assert_eq!(result.stats.elements, 2);
            assert_eq!(result.fingerprint, own_replica.fingerprint());
        }
        assert!(staged.is_empty(), "the staging buffer comes back cleared");
        assert!(staged.capacity() >= batch.len());
    }

    #[test]
    fn workers_release_their_handles_before_reporting() {
        let replica = base_replica(100);
        let mut pool = ReplicaPool::new(2, &replica);
        let mut staged = vec![ins(0, 10), ins(2, 12), ins(3, 13), ins(4, 14)];
        let _ = pool.count(&mut staged, 2, |_| ());
        // Both workers reported, so the pool's handle is the only one left.
        assert_eq!(Arc::strong_count(&pool.batch), 1);
    }

    #[test]
    fn dropping_the_pool_joins_all_workers() {
        let pool = ReplicaPool::new(4, &Replica::new(8, 0));
        drop(pool); // must not hang or panic
    }
}
