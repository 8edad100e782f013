//! The per-batch op log that rolls sample replicas through a mini-batch's
//! versions.
//!
//! PARABACUS first applies the sample updates of a whole mini-batch
//! sequentially (cheap, O(1) amortised per edge).  Afterwards the per-edge
//! butterfly counting for edge `i` of the batch must see the sample exactly
//! as it was before edge `i`'s own update — the *i-th version* `S_i` of the
//! paper (§V-A) — even though the coordinator's sample has already advanced
//! to the post-batch state.
//!
//! Phase 1 drives the sampling policy through a [`RecordingSample`], which
//! appends every sample mutation to a [`VersionedDeltas`] log in
//! application order and notes where each batch position's mutations begin.
//! Each counting worker owns a private replica of the sample that holds the
//! pre-batch state `S_0`, and [rolls](VersionedDeltas::roll) it forward one
//! position at a time: the replica holds exactly `S_i` when element `i` is
//! counted, and position `i`'s mutations are applied right after.  Counting
//! therefore runs ABACUS's own kernel on a plain [`SampleGraph`], and a
//! replica pays each mutation of the batch once, O(batch) per worker.
//!
//! [`SampleGraph`]'s mutations are deterministic in the operation sequence,
//! so a replica rolled through every batch stays structurally identical to
//! the coordinator's sample, down to the slot order of its edge vector.
//!
//! [`clear`](VersionedDeltas::clear) keeps both vectors' capacity, so the
//! coordinator records every batch into recycled logs.

use crate::sample_graph::SampleGraph;
use abacus_graph::Edge;
use abacus_sampling::SampleStore;
use rand::Rng;
use std::ops::Range;

/// The sample mutations of one mini-batch, in application order and grouped
/// by batch position.
#[derive(Debug, Clone, Default)]
pub struct VersionedDeltas {
    /// `(edge, added)` mutations in the exact order phase 1 applied them.
    ops: Vec<(Edge, bool)>,
    /// `starts[i]` is the index in `ops` of batch position `i`'s first
    /// mutation (equal to the next position's when `i` mutated nothing).
    starts: Vec<usize>,
}

impl VersionedDeltas {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of edge-level mutations recorded.
    #[must_use]
    pub fn recorded_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of batch positions recorded.
    #[must_use]
    pub fn positions(&self) -> usize {
        self.starts.len()
    }

    /// Clears the log for the next mini-batch, keeping allocations.
    pub fn clear(&mut self) {
        self.ops.clear();
        self.starts.clear();
    }

    /// Opens the next batch position: every mutation recorded until the
    /// next call belongs to it.
    fn open_position(&mut self) {
        self.starts.push(self.ops.len());
    }

    /// Records one mutation of the open position.
    fn record(&mut self, added: bool, edge: Edge) {
        debug_assert!(
            !self.starts.is_empty(),
            "mutation recorded before a position was opened"
        );
        self.ops.push((edge, added));
    }

    /// Index in `ops` where batch position `position` starts (the log's end
    /// for `position >= positions()`).
    fn offset(&self, position: usize) -> usize {
        self.starts.get(position).copied().unwrap_or(self.ops.len())
    }

    /// Applies the mutations of batch positions `positions` to `replica`, in
    /// the order phase 1 applied them.
    ///
    /// `replica` must hold the version `S_start` the coordinator's sample had
    /// before position `positions.start`; afterwards it holds `S_end`.
    pub fn roll(&self, replica: &mut SampleGraph, positions: Range<usize>) {
        let end = self.offset(positions.end);
        let start = self.offset(positions.start).min(end);
        for &(edge, added) in &self.ops[start..end] {
            if added {
                replica.store_insert(edge);
            } else {
                let removed = replica.store_remove(&edge);
                debug_assert!(removed, "roll removed an edge the replica did not hold");
            }
        }
    }
}

/// A [`SampleStore`] wrapper that applies updates to the coordinator's
/// sample while recording every mutation into a [`VersionedDeltas`] log.
///
/// The state transitions (and the RNG consumption) are bit-identical to
/// driving the [`SampleGraph`] directly, which is what makes PARABACUS
/// produce exactly the same sample — and therefore the same estimates — as
/// sequential ABACUS (Theorem 5).
#[derive(Debug)]
pub struct RecordingSample<'a> {
    sample: &'a mut SampleGraph,
    deltas: &'a mut VersionedDeltas,
}

impl<'a> RecordingSample<'a> {
    /// Wraps the sample for the update of the next batch position, which it
    /// opens in `deltas`.
    pub fn new(sample: &'a mut SampleGraph, deltas: &'a mut VersionedDeltas) -> Self {
        deltas.open_position();
        RecordingSample { sample, deltas }
    }
}

impl SampleStore<Edge> for RecordingSample<'_> {
    fn store_len(&self) -> usize {
        self.sample.store_len()
    }

    fn store_contains(&self, item: &Edge) -> bool {
        self.sample.store_contains(item)
    }

    fn store_insert(&mut self, item: Edge) {
        self.deltas.record(true, item);
        self.sample.store_insert(item);
    }

    fn store_remove(&mut self, item: &Edge) -> bool {
        let removed = self.sample.store_remove(item);
        if removed {
            self.deltas.record(false, *item);
        }
        removed
    }

    fn store_replace_random<R: Rng + ?Sized>(&mut self, item: Edge, rng: &mut R) {
        // Mirrors SampleGraph::store_replace_random exactly: one RNG draw to
        // pick the victim, then remove + insert.
        let victim = self.sample.random_edge(rng);
        self.deltas.record(false, victim);
        self.sample.store_remove(&victim);
        self.deltas.record(true, item);
        self.sample.store_insert(item);
    }

    fn store_clear(&mut self) {
        // lint:allow(panic-policy): the reservoir policy has no clear operation; reaching this is a policy-contract break worth crashing on
        unreachable!("the sampling policy never clears the sample mid-batch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abacus_graph::{count_butterflies_with_edge, NeighborhoodView, Side, VertexRef};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn edge(l: u32, r: u32) -> Edge {
        Edge::new(l, r)
    }

    /// Collects the neighbor set a sample reports for a vertex.
    fn neighbors(sample: &SampleGraph, v: VertexRef) -> BTreeSet<u32> {
        let mut out = BTreeSet::new();
        sample.view_for_each_neighbor(v, &mut |n| {
            assert!(out.insert(n), "duplicate neighbor {n} reported for {v}");
        });
        out
    }

    /// The sample's edges as a set.
    fn edge_set(sample: &SampleGraph) -> BTreeSet<Edge> {
        sample.edges().iter().copied().collect()
    }

    #[test]
    fn version_zero_sees_the_pre_batch_sample() {
        let mut sample = SampleGraph::new();
        sample.store_insert(edge(1, 10));
        sample.store_insert(edge(2, 10));
        let mut replica = sample.clone();

        let mut deltas = VersionedDeltas::new();
        // Batch: position 0 inserts (3,10); position 1 removes (1,10).
        RecordingSample::new(&mut sample, &mut deltas).store_insert(edge(3, 10));
        assert!(RecordingSample::new(&mut sample, &mut deltas).store_remove(&edge(1, 10)));
        assert_eq!(deltas.positions(), 2);
        assert_eq!(deltas.recorded_ops(), 2);

        let hub = VertexRef::right(10);
        assert_eq!(neighbors(&replica, hub), BTreeSet::from([1, 2]));
        assert!(replica.view_contains(hub, 1));
        assert!(!replica.view_contains(hub, 3));
        assert_eq!(replica.view_degree(hub), 2);

        deltas.roll(&mut replica, 0..1);
        assert_eq!(neighbors(&replica, hub), BTreeSet::from([1, 2, 3]));

        deltas.roll(&mut replica, 1..2);
        assert_eq!(neighbors(&replica, hub), BTreeSet::from([2, 3]));
        assert_eq!(edge_set(&replica), edge_set(&sample));
    }

    #[test]
    fn reinsertion_within_a_batch_is_reconstructed() {
        let mut sample = SampleGraph::new();
        sample.store_insert(edge(1, 10));
        let mut replica = sample.clone();
        let mut deltas = VersionedDeltas::new();
        // Position 0 removes (1,10); position 1 re-inserts it.
        RecordingSample::new(&mut sample, &mut deltas).store_remove(&edge(1, 10));
        RecordingSample::new(&mut sample, &mut deltas).store_insert(edge(1, 10));

        assert!(replica.view_contains(VertexRef::left(1), 10));
        deltas.roll(&mut replica, 0..1);
        assert!(!replica.view_contains(VertexRef::left(1), 10));
        deltas.roll(&mut replica, 1..2);
        assert!(replica.view_contains(VertexRef::left(1), 10));
    }

    #[test]
    fn replay_reproduces_the_live_sample_structurally() {
        let mut sample = SampleGraph::new();
        for i in 0..6u32 {
            sample.store_insert(edge(i, i + 10));
        }
        let mut replica = sample.clone();

        let mut deltas = VersionedDeltas::new();
        let mut rng = StdRng::seed_from_u64(99);
        for &(op, l, r) in &[(0u8, 7u32, 20u32), (1, 0, 10), (2, 8, 21), (0, 9, 22)] {
            let mut rec = RecordingSample::new(&mut sample, &mut deltas);
            match op {
                0 => rec.store_insert(edge(l, r)),
                1 => {
                    rec.store_remove(&edge(l, r));
                }
                _ => rec.store_replace_random(edge(l, r), &mut rng),
            }
        }

        deltas.roll(&mut replica, 0..deltas.positions());
        // Structural equality matters: the dense edge vector must have the
        // same slot order so later random-victim draws pick the same edges.
        assert_eq!(replica.edges(), sample.edges());
        assert_eq!(replica.len(), sample.len());
    }

    /// `clear` reopens the log for the next batch: positions restart at 0.
    #[test]
    fn clear_resets_the_log_and_unseals_it() {
        let mut sample = SampleGraph::new();
        let mut deltas = VersionedDeltas::new();
        RecordingSample::new(&mut sample, &mut deltas).store_insert(edge(1, 2));
        assert_eq!((deltas.positions(), deltas.recorded_ops()), (1, 1));
        deltas.clear();
        assert_eq!((deltas.positions(), deltas.recorded_ops()), (0, 0));
        // Recording after clear() starts a new batch at position 0.
        RecordingSample::new(&mut sample, &mut deltas).store_insert(edge(3, 4));
        assert_eq!((deltas.positions(), deltas.recorded_ops()), (1, 1));
        assert_eq!(deltas.ops, [(edge(3, 4), true)]);
    }

    #[test]
    fn clear_retains_the_arena_capacity() {
        let mut sample = SampleGraph::new();
        let mut deltas = VersionedDeltas::new();
        for version in 0..64u32 {
            RecordingSample::new(&mut sample, &mut deltas)
                .store_insert(edge(version, 10 + version % 5));
        }
        let caps = (deltas.ops.capacity(), deltas.starts.capacity());
        assert!(caps.0 > 0 && caps.1 > 0);
        deltas.clear();
        assert_eq!(
            (deltas.ops.capacity(), deltas.starts.capacity()),
            caps,
            "clear() must keep the log's capacity for the next batch"
        );
        assert!(deltas.ops.is_empty() && deltas.starts.is_empty());
    }

    #[test]
    fn hub_vertex_with_many_changes_is_reconstructed() {
        // A single right-side hub accumulates many insertions and deletions
        // across the batch; the rolled replica must hold every intermediate
        // version.
        let mut sample = SampleGraph::new();
        let mut replica = sample.clone();
        let mut deltas = VersionedDeltas::new();
        let mut expected: Vec<BTreeSet<u32>> = Vec::new();
        let mut live: BTreeSet<u32> = BTreeSet::new();
        for version in 0..200u32 {
            expected.push(live.clone());
            let l = version % 37;
            let e = edge(l, 10);
            let mut rec = RecordingSample::new(&mut sample, &mut deltas);
            if live.contains(&l) {
                assert!(rec.store_remove(&e));
                live.remove(&l);
            } else {
                rec.store_insert(e);
                live.insert(l);
            }
        }
        for (version, want) in expected.iter().enumerate() {
            assert_eq!(&neighbors(&replica, VertexRef::right(10)), want);
            assert_eq!(replica.view_degree(VertexRef::right(10)), want.len());
            deltas.roll(&mut replica, version..version + 1);
        }
        assert_eq!(neighbors(&replica, VertexRef::right(10)), live);
    }

    #[test]
    fn ops_iterator_reports_the_recorded_sequence() {
        let mut sample = SampleGraph::new();
        let mut deltas = VersionedDeltas::new();
        RecordingSample::new(&mut sample, &mut deltas).store_insert(edge(1, 10));
        // A position that mutates nothing still counts as a position.
        let _ = RecordingSample::new(&mut sample, &mut deltas);
        assert!(RecordingSample::new(&mut sample, &mut deltas).store_remove(&edge(1, 10)));
        assert_eq!(deltas.ops, [(edge(1, 10), true), (edge(1, 10), false)]);
        assert_eq!(deltas.positions(), 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Reference check: push a random batch of sample mutations through
        /// the recording wrapper, cloning the sample before each position.
        /// Rolling a pre-batch clone forward position by position must
        /// reproduce each clone's edge set, adjacency and per-edge counts
        /// (with identical probe-model comparisons).
        #[test]
        fn rolled_replicas_match_full_snapshots(
            ops in proptest::collection::vec((0u8..3, 0u32..6, 0u32..6), 1..40),
            seed in any::<u64>(),
        ) {
            let mut sample = SampleGraph::new();
            // Pre-populate with a few edges so removals and replacements have
            // something to act on.
            for i in 0..4u32 {
                sample.store_insert(edge(i, i + 10));
            }
            let mut replica = sample.clone();
            let mut deltas = VersionedDeltas::new();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut snapshots: Vec<SampleGraph> = Vec::new();

            for (op, l, r) in ops {
                snapshots.push(sample.clone());
                let e = edge(l, r + 10);
                let mut rec = RecordingSample::new(&mut sample, &mut deltas);
                match op {
                    0 => {
                        if !rec.store_contains(&e) {
                            rec.store_insert(e);
                        }
                    }
                    1 => {
                        let _ = rec.store_remove(&e);
                    }
                    _ => {
                        if rec.store_len() > 0 && !rec.store_contains(&e) {
                            rec.store_replace_random(e, &mut rng);
                        }
                    }
                }
            }

            for (v, snapshot) in snapshots.iter().enumerate() {
                prop_assert_eq!(edge_set(&replica), edge_set(snapshot), "version {}", v);
                for id in 0..20u32 {
                    for side in [Side::Left, Side::Right] {
                        let vref = VertexRef::new(side, id);
                        prop_assert_eq!(
                            neighbors(&replica, vref),
                            neighbors(snapshot, vref),
                            "vertex {} at version {}", vref, v
                        );
                    }
                }
                for l in 0..6u32 {
                    for r in 10..16u32 {
                        prop_assert_eq!(
                            count_butterflies_with_edge(&replica, edge(l, r)),
                            count_butterflies_with_edge(snapshot, edge(l, r))
                        );
                    }
                }
                deltas.roll(&mut replica, v..v + 1);
            }
            // The fully rolled replica is the post-batch sample, slot order
            // included.
            prop_assert_eq!(replica.edges(), sample.edges());
        }
    }
}
