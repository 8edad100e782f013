//! Glue between the bounded sample and the frozen CSR counting snapshot.
//!
//! The estimators keep the [`CsrSnapshot`] in lock-step with the hash-backed
//! [`SampleGraph`]:
//!
//! * **ABACUS** (per element) routes every Random Pairing update through
//!   [`MirroredSample`], which applies each mutation to both structures in
//!   one pass, so the snapshot always equals the sample the next element
//!   counts against.
//! * **PARABACUS** (per batch) replays the sealed delta log of each
//!   mini-batch onto its shared snapshot
//!   (see `ParAbacus`), mirroring
//!   [`VersionedDeltas::replay_onto`](crate::parabacus::versioned::VersionedDeltas::replay_onto).
//!
//! Snapshot maintenance is incremental (row patches, see
//! [`abacus_graph::csr`]); the O(sample) compaction cost is only paid when
//! churn crosses the snapshot's threshold.

use crate::sample_graph::SampleGraph;
use abacus_graph::adjacency::AdjacencySet;
use abacus_graph::csr::CsrSnapshot;
use abacus_graph::intersect::{
    slice_probe_excluding, sorted_intersection_excluding, IntersectionResult,
};
use abacus_graph::{Edge, NeighborhoodView, VertexRef};
use abacus_sampling::SampleStore;
use rand::Rng;

/// [`SnapshotView`] probes a hub's hash set instead of merging the sorted
/// rows once the larger row exceeds this multiple of the smaller one.
const HYBRID_SIZE_RATIO: usize = 8;

/// The hybrid counting view ABACUS (and the PARABACUS fast path) intersects
/// against when the snapshot is enabled: CSR rows for iteration, degrees,
/// and merges, the sample's hash sets for skewed probes.
///
/// Per operand-size regime the cheapest kernel differs (measured in
/// `crates/bench/benches/intersect.rs`):
///
/// * comparable sizes — fused sorted merge over the two contiguous rows,
/// * heavy skew with a hash-backed hub — iterate the small *sorted row*
///   (contiguous, unlike walking a hash set) and probe the hub's hash set at
///   O(1) expected per probe,
/// * heavy skew against a vector-backed set — galloping search over the
///   rows.
///
/// Every path reports probe-model `comparisons`, so estimates and Fig. 10
/// workload counters are bit-identical to the pure hash path.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotView<'a> {
    snapshot: &'a CsrSnapshot,
    sample: &'a SampleGraph,
}

impl<'a> SnapshotView<'a> {
    /// Pairs a snapshot with the sample it mirrors.  The two must be in
    /// lock-step (the estimators guarantee this via [`MirroredSample`] /
    /// batch replay).
    #[must_use]
    pub fn new(snapshot: &'a CsrSnapshot, sample: &'a SampleGraph) -> Self {
        SnapshotView { snapshot, sample }
    }
}

impl NeighborhoodView for SnapshotView<'_> {
    #[inline]
    fn view_degree(&self, v: VertexRef) -> usize {
        self.snapshot.view_degree(v)
    }

    #[inline]
    fn view_contains(&self, v: VertexRef, neighbor: u32) -> bool {
        self.sample.view_contains(v, neighbor)
    }

    #[inline]
    fn view_for_each_neighbor(&self, v: VertexRef, f: &mut dyn FnMut(u32)) {
        self.snapshot.view_for_each_neighbor(v, f);
    }

    #[inline]
    fn view_intersection_excluding(
        &self,
        a: VertexRef,
        b: VertexRef,
        exclude: u32,
    ) -> IntersectionResult {
        hybrid_intersection_excluding(
            self.snapshot.row(a),
            self.snapshot.row(b),
            exclude,
            |b_is_large| self.sample.neighbors(if b_is_large { b } else { a }),
        )
    }
}

/// The [`SnapshotView`] kernel over resolved operands: the snapshot rows `ra`
/// and `rb` of two vertices, and `large_set`, which returns the sample's hash
/// set behind the larger row (`true`: `b`'s) and is only called when the
/// sizes are skewed enough for hash probes to win.  The versioned views of
/// PARABACUS share it, with operands they resolve once per edge.
#[inline]
pub(crate) fn hybrid_intersection_excluding<'s>(
    ra: &[u32],
    rb: &[u32],
    exclude: u32,
    large_set: impl FnOnce(bool) -> Option<&'s AdjacencySet>,
) -> IntersectionResult {
    let b_is_large = ra.len() <= rb.len();
    let (small_row, large_row) = if b_is_large { (ra, rb) } else { (rb, ra) };
    if small_row.is_empty() {
        return IntersectionResult::default();
    }
    if large_row.len() > small_row.len().saturating_mul(HYBRID_SIZE_RATIO) {
        // Skewed: probe the hub's hash set if it has one.
        if let Some(set) = large_set(b_is_large).filter(|set| set.is_large()) {
            return slice_probe_excluding(small_row, set, exclude);
        }
    }
    sorted_intersection_excluding(small_row, large_row, exclude)
}

/// A [`SampleStore`] that applies every mutation to the live sample *and*
/// to its CSR snapshot, keeping the two in lock-step.
///
/// State transitions and RNG consumption are bit-identical to driving the
/// [`SampleGraph`] directly (the victim of a random replacement is drawn
/// from the sample exactly as [`SampleGraph::store_replace_random`] does),
/// so enabling the snapshot can never change sampling decisions.
#[derive(Debug)]
pub struct MirroredSample<'a> {
    sample: &'a mut SampleGraph,
    snapshot: &'a mut CsrSnapshot,
}

impl<'a> MirroredSample<'a> {
    /// Pairs a sample with the snapshot mirroring it.
    pub fn new(sample: &'a mut SampleGraph, snapshot: &'a mut CsrSnapshot) -> Self {
        MirroredSample { sample, snapshot }
    }
}

impl SampleStore<Edge> for MirroredSample<'_> {
    fn store_len(&self) -> usize {
        self.sample.store_len()
    }

    fn store_contains(&self, item: &Edge) -> bool {
        self.sample.store_contains(item)
    }

    fn store_insert(&mut self, item: Edge) {
        self.sample.store_insert(item);
        self.snapshot.apply(item, true);
    }

    fn store_remove(&mut self, item: &Edge) -> bool {
        let removed = self.sample.store_remove(item);
        if removed {
            self.snapshot.apply(*item, false);
        }
        removed
    }

    fn store_replace_random<R: Rng + ?Sized>(&mut self, item: Edge, rng: &mut R) {
        // Mirrors SampleGraph::store_replace_random exactly: one RNG draw to
        // pick the victim, then remove + insert.
        let victim = self.sample.random_edge(rng);
        self.store_remove(&victim);
        self.store_insert(item);
    }

    fn store_clear(&mut self) {
        self.sample.store_clear();
        *self.snapshot = CsrSnapshot::new();
    }
}

/// Converts auxiliary `u32` entry counts (snapshot arenas) into edge
/// equivalents for `memory_edges` accounting: one resident [`Edge`] is two
/// `u32` endpoints.
#[must_use]
pub fn entries_to_edge_equivalents(entries: usize) -> usize {
    entries.div_ceil(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abacus_graph::{cheapest_side, NeighborhoodView, VertexRef};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn edge(l: u32, r: u32) -> Edge {
        Edge::new(l, r)
    }

    /// `S(v)` summed in full: the reference for the capped sums.
    fn full_sum(sample: &SampleGraph, v: VertexRef) -> usize {
        let mut sum = 0;
        sample.view_for_each_neighbor(v, &mut |x| {
            sum += sample.view_degree(VertexRef::new(v.side.opposite(), x));
        });
        sum
    }

    /// Asserts the snapshot reports exactly the sample's adjacency for every
    /// vertex id in a small universe.
    fn assert_mirrors(sample: &SampleGraph, snapshot: &CsrSnapshot, universe: u32) {
        assert_eq!(snapshot.num_edges(), sample.len());
        for id in 0..universe {
            for v in [VertexRef::left(id), VertexRef::right(id)] {
                assert_eq!(snapshot.view_degree(v), sample.view_degree(v), "{v}");
                let mut want: Vec<u32> = Vec::new();
                sample.view_for_each_neighbor(v, &mut |n| want.push(n));
                want.sort_unstable();
                assert_eq!(snapshot.row(v), &want[..], "{v}");
            }
        }
    }

    #[test]
    fn mirrored_mutations_keep_sample_and_snapshot_identical() {
        let mut sample = SampleGraph::with_budget(16);
        let mut snapshot = CsrSnapshot::new();
        let mut rng = StdRng::seed_from_u64(3);
        {
            let mut mirrored = MirroredSample::new(&mut sample, &mut snapshot);
            for i in 0..8u32 {
                mirrored.store_insert(edge(i, i % 3));
            }
            assert!(mirrored.store_remove(&edge(2, 2)));
            assert!(!mirrored.store_remove(&edge(2, 2)));
            mirrored.store_replace_random(edge(100, 100), &mut rng);
            assert_eq!(mirrored.store_len(), 7); // 8 inserts − 1 removal

            assert!(mirrored.store_contains(&edge(100, 100)));
        }
        assert_mirrors(&sample, &snapshot, 101);
    }

    #[test]
    fn clear_resets_both_sides() {
        let mut sample = SampleGraph::new();
        let mut snapshot = CsrSnapshot::new();
        let mut mirrored = MirroredSample::new(&mut sample, &mut snapshot);
        mirrored.store_insert(edge(1, 2));
        mirrored.store_clear();
        assert_eq!(mirrored.store_len(), 0);
        assert_eq!(snapshot.num_edges(), 0);
        assert!(snapshot.row(VertexRef::left(1)).is_empty());
    }

    #[test]
    fn edge_equivalent_conversion_rounds_up() {
        assert_eq!(entries_to_edge_equivalents(0), 0);
        assert_eq!(entries_to_edge_equivalents(1), 1);
        assert_eq!(entries_to_edge_equivalents(2), 1);
        assert_eq!(entries_to_edge_equivalents(9), 5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random mixed mutation streams through the mirrored store leave the
        /// snapshot structurally identical to the sample.
        #[test]
        fn random_streams_stay_mirrored(
            ops in proptest::collection::vec((0u8..3, 0u32..10, 0u32..10), 1..200),
            seed in any::<u64>(),
        ) {
            let mut sample = SampleGraph::new();
            let mut snapshot = CsrSnapshot::new();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut mirrored = MirroredSample::new(&mut sample, &mut snapshot);
            for (op, l, r) in ops {
                let e = edge(l, r);
                match op {
                    0 => {
                        if !mirrored.store_contains(&e) {
                            mirrored.store_insert(e);
                        }
                    }
                    1 => {
                        let _ = mirrored.store_remove(&e);
                    }
                    _ => {
                        if mirrored.store_len() > 0 && !mirrored.store_contains(&e) {
                            mirrored.store_replace_random(e, &mut rng);
                        }
                    }
                }
            }
            assert_mirrors(&sample, &snapshot, 10);

            // Line 7 on both counting backings: every capped sum is exact
            // below its cap and reaches the cap otherwise, and the side test
            // picks the side of the uncapped comparison.
            let view = SnapshotView::new(&snapshot, &sample);
            for id in 0..10u32 {
                for v in [VertexRef::left(id), VertexRef::right(id)] {
                    let exact = full_sum(&sample, v);
                    for cap in 0..=exact + 1 {
                        for capped in [
                            sample.view_neighbor_degree_sum_capped(v, cap),
                            view.view_neighbor_degree_sum_capped(v, cap),
                        ] {
                            prop_assert!(
                                if exact < cap { capped == exact } else { capped >= cap },
                                "capped sum {capped} of {v} (cap {cap}, exact {exact})"
                            );
                        }
                    }
                }
            }
            for l in 0..10u32 {
                for r in 0..10u32 {
                    let e = edge(l, r);
                    let (u, v) = (e.left_ref(), e.right_ref());
                    let want = (sample.view_degree(u) > 0 && sample.view_degree(v) > 0).then(|| {
                        if full_sum(&sample, u) < full_sum(&sample, v) { (u, v) } else { (v, u) }
                    });
                    prop_assert_eq!(cheapest_side(&sample, e), want);
                    prop_assert_eq!(cheapest_side(&view, e), want);
                }
            }
        }
    }
}
